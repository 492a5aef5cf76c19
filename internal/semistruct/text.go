package semistruct

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// This file gives semi-structured forests a textual form, so the §6.3
// constraints can be applied to data files: an indentation-based outline
// (two spaces per level), one node per line, either "label" or
// "label: value".
//
//	country
//	  corporation
//	    person
//	      contact
//	        name: ada
//
// Lines starting with '#' are comments; blank lines are ignored.

// ParseForest reads an outline into a forest of nodes.
func ParseForest(r io.Reader) ([]*Node, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var roots []*Node
	// stack[d] is the most recent node at depth d.
	var stack []*Node
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := strings.TrimRight(sc.Text(), " \t\r")
		if raw == "" || strings.HasPrefix(strings.TrimSpace(raw), "#") {
			continue
		}
		indent := 0
		for indent < len(raw) && raw[indent] == ' ' {
			indent++
		}
		if indent%2 != 0 {
			return nil, fmt.Errorf("semistruct: line %d: odd indentation %d", lineNo, indent)
		}
		depth := indent / 2
		if depth > len(stack) {
			return nil, fmt.Errorf("semistruct: line %d: indentation jumps by more than one level", lineNo)
		}
		text := raw[indent:]
		label, value, _ := strings.Cut(text, ":")
		label = strings.TrimSpace(label)
		value = strings.TrimSpace(value)
		if label == "" {
			return nil, fmt.Errorf("semistruct: line %d: empty label", lineNo)
		}
		n := &Node{Label: label, Value: value}
		if depth == 0 {
			roots = append(roots, n)
		} else {
			parent := stack[depth-1]
			parent.Children = append(parent.Children, n)
		}
		stack = append(stack[:depth], n)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return roots, nil
}

// ParseConstraint adds one textual constraint to the set. Forms:
//
//	require label
//	require A child|descendant|parent|ancestor B
//	forbid  A child|descendant B
func (c *Constraints) ParseConstraint(src string) error {
	fields := strings.Fields(src)
	switch {
	case len(fields) == 2 && fields[0] == "require":
		return c.requireLabel(fields[1])
	case len(fields) == 4 && fields[0] == "require":
		ax, err := parseAxis(fields[2])
		if err != nil {
			return err
		}
		return c.Require(fields[1], ax, fields[3])
	case len(fields) == 4 && fields[0] == "forbid":
		ax, err := parseAxis(fields[2])
		if err != nil {
			return err
		}
		return c.Forbid(fields[1], ax, fields[3])
	}
	return fmt.Errorf("semistruct: cannot parse constraint %q", src)
}
