package proto

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

const (
	searchUsage = "(usage: SEARCH <filter> [base=<dn>] [limit=N])"
	countUsage  = "(usage: COUNT <class> [child] [base=<dn>])"
)

// SearchArgs is the parsed tail of a SEARCH line.
type SearchArgs struct {
	Filter  string // balanced-parenthesis filter text, unparsed
	Base    string // base DN; meaningful only when HasBase
	HasBase bool
	Limit   int // -1 = unlimited
}

// ParseSearchArgs splits "(filter) [base=<dn>] [limit=N]". The base DN
// is everything after "base=" — DNs contain spaces (ou=Human
// Resources,o=acme), so the tail must not be re-tokenized. The optional
// limit is the final space-separated token, peeled off before the base
// is read. Anything else trailing the filter is an error, not silently
// ignored.
func ParseSearchArgs(rest string) (SearchArgs, error) {
	a := SearchArgs{Limit: -1}
	ftext, tail, err := cutBalanced(strings.TrimSpace(rest))
	if err != nil {
		return a, err
	}
	a.Filter = ftext
	tail = strings.TrimSpace(tail)
	last := tail
	if i := strings.LastIndexByte(tail, ' '); i >= 0 {
		last = tail[i+1:]
	}
	if digits, isLimit := strings.CutPrefix(last, "limit="); isLimit {
		n, lerr := strconv.Atoi(digits)
		if lerr != nil || n < 0 || strings.TrimLeft(digits, "0123456789") != "" {
			return a, fmt.Errorf("malformed %q %s", last, searchUsage)
		}
		a.Limit = n
		tail = strings.TrimSpace(tail[:len(tail)-len(last)])
	}
	a.Base, a.HasBase = strings.CutPrefix(tail, "base=")
	if tail != "" && !a.HasBase {
		return a, fmt.Errorf("unexpected %q after filter %s", tail, searchUsage)
	}
	return a, nil
}

// Line renders the SEARCH request a was parsed from.
func (a SearchArgs) Line() string {
	l := "SEARCH " + a.Filter
	if a.HasBase {
		l += " base=" + a.Base
	}
	if a.Limit >= 0 {
		l += " limit=" + strconv.Itoa(a.Limit)
	}
	return l
}

// cutBalanced splits off a leading balanced-parenthesis span (a filter,
// which may contain spaces) from the rest of the line.
func cutBalanced(s string) (string, string, error) {
	if s == "" || s[0] != '(' {
		return "", "", errors.New("expected a parenthesized filter")
	}
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // skip the escape marker
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return s[:i+1], s[i+1:], nil
			}
		}
	}
	return "", "", errors.New("unbalanced filter")
}

// CountArgs is the parsed tail of a COUNT line: entries of Class in the
// whole instance, the proper descendants of Base, or with Child only
// Base's children.
type CountArgs struct {
	Class   string
	Child   bool
	Base    string // meaningful only when HasBase
	HasBase bool
}

// ParseCountArgs splits "<class> [child] [base=<dn>]"; child needs a
// base.
func ParseCountArgs(rest string) (CountArgs, error) {
	var a CountArgs
	class, tail, _ := strings.Cut(strings.TrimSpace(rest), " ")
	if class == "" {
		return a, errors.New("COUNT needs a class " + countUsage)
	}
	a.Class = class
	tail = strings.TrimSpace(tail)
	if t, ok := strings.CutPrefix(tail, "child"); ok && (t == "" || t[0] == ' ') {
		a.Child = true
		tail = strings.TrimSpace(t)
	}
	a.Base, a.HasBase = strings.CutPrefix(tail, "base=")
	if tail != "" && !a.HasBase {
		return a, fmt.Errorf("unexpected %q after class %s", tail, countUsage)
	}
	if a.Child && !a.HasBase {
		return a, errors.New("COUNT child needs a base " + countUsage)
	}
	return a, nil
}

// Line renders the COUNT request a was parsed from.
func (a CountArgs) Line() string {
	l := "COUNT " + a.Class
	if a.Child {
		l += " child"
	}
	if a.HasBase {
		l += " base=" + a.Base
	}
	return l
}

// TxLine is one parsed line of a transaction body.
type TxLine struct {
	Cmd   string // ADD, DELETE, MOVE, COMMIT or ABORT; "" for an attribute or blank line
	DN    string // ADD and DELETE target, MOVE source
	Dest  string // MOVE destination; "" is the forest root
	Attr  bool   // an attribute line of the open ADD: Name and Value
	Name  string
	Value string
}

var errTxTooBig = fmt.Errorf("transaction %s: more than %d operations or %d bytes", TooComplex, maxTxOps, maxTxBytes)

// ParseTxLine parses one trimmed line inside BEGIN..COMMIT. adding says
// whether an ADD is open; attribute lines are valid only then. ops and
// size are the operations and bytes the transaction holds so far, so a
// line past maxTxOps or maxTxBytes is refused. Cmd is set even when the
// line is refused, so the refusal is metered under its command.
func ParseTxLine(line string, adding bool, ops, size int) (TxLine, error) {
	cmd, rest := Split(line)
	if c, ok := lookup(cmd); !ok || !c.Tx {
		switch {
		case line == "":
			return TxLine{}, nil // a blank line is a no-op
		case !adding:
			return TxLine{}, fmt.Errorf("unexpected %q inside transaction", line)
		case size+len(line) > maxTxBytes:
			return TxLine{}, errTxTooBig
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return TxLine{}, fmt.Errorf("malformed attribute line %q", line)
		}
		return TxLine{Attr: true, Name: strings.TrimSpace(name), Value: strings.TrimSpace(value)}, nil
	}
	l := TxLine{Cmd: cmd}
	if cmd != "COMMIT" && cmd != "ABORT" && (ops >= maxTxOps || size+len(line) > maxTxBytes) {
		return l, errTxTooBig
	}
	switch cmd {
	case "ADD":
		if l.DN = strings.TrimSpace(rest); l.DN == "" {
			return l, errors.New("ADD needs a DN")
		}
	case "DELETE":
		l.DN = strings.TrimSpace(rest)
	case "MOVE":
		// Splitting on a space would mangle any DN containing one, so the
		// protocol uses an explicit arrow separator.
		rest = strings.TrimSpace(rest)
		dn, dest, ok := strings.Cut(rest, " -> ")
		if !ok {
			dn, ok = strings.CutSuffix(rest, " ->")
		}
		if !ok {
			return l, errors.New(`MOVE needs "<dn> -> <dest>" ("<dn> ->" moves to the forest root)`)
		}
		l.DN, l.Dest = strings.TrimSpace(dn), strings.TrimSpace(dest)
	}
	return l, nil
}
