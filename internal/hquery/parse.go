package hquery

import (
	"fmt"
	"strings"

	"boundschema/internal/filter"
	"boundschema/internal/proto"
)

// Parse reads a query in the s-expression syntax produced by String:
//
//	(select (objectClass=person))
//	(select (objectClass=person) @delta)
//	(minus (select (objectClass=orgGroup))
//	       (desc (select (objectClass=orgGroup)) (select (objectClass=person))))
//
// The instance tags @0, @delta, @base and @full correspond to the Figure 5
// annotations [∅], [Δ], [D] and [D±Δ]. A query, filters included, nested
// deeper than proto.MaxDepth or over proto.MaxNodes nodes is refused.
func Parse(src string) (Query, error) {
	p := &qparser{src: src}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.errorf("trailing input %q", p.src[p.pos:])
	}
	return q, nil
}

// MustParse is Parse that panics on error, for queries written as program
// literals.
func MustParse(src string) Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type qparser struct {
	src          string
	pos          int
	depth, nodes int
}

func (p *qparser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("hquery: at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *qparser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *qparser) parseQuery() (Query, error) {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '(' {
		return nil, p.errorf("expected '('")
	}
	p.pos++
	p.depth++
	defer func() { p.depth-- }()
	if err := p.count(0); err != nil {
		return nil, err
	}
	op := p.readWord()
	switch op {
	case "select":
		return p.parseSelect()
	case "child", "parent", "desc", "anc", "minus":
		left, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		right, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if err := p.closeParen(); err != nil {
			return nil, err
		}
		switch op {
		case "child":
			return Child(left, right), nil
		case "parent":
			return Parent(left, right), nil
		case "desc":
			return Desc(left, right), nil
		case "anc":
			return Anc(left, right), nil
		default:
			return Minus(left, right), nil
		}
	case "":
		return nil, p.errorf("missing operator")
	default:
		return nil, p.errorf("unknown operator %q", op)
	}
}

func (p *qparser) parseSelect() (Query, error) {
	p.skipSpace()
	ftext, err := p.readBalanced()
	if err != nil {
		return nil, err
	}
	f, err := filter.Parse(ftext)
	if err != nil {
		return nil, err
	}
	inst := InstDefault
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '@' {
		p.pos++
		tag := p.readWord()
		switch tag {
		case "0", "empty":
			inst = InstEmpty
		case "delta":
			inst = InstDelta
		case "base":
			inst = InstBase
		case "full":
			inst = InstFull
		case "D":
			inst = InstDefault
		default:
			return nil, p.errorf("unknown instance tag @%s", tag)
		}
	}
	if err := p.closeParen(); err != nil {
		return nil, err
	}
	return SelectOn(f, inst), nil
}

// readBalanced consumes a balanced parenthesized span (the embedded
// filter), honoring filter escapes.
func (p *qparser) readBalanced() (string, error) {
	if p.pos >= len(p.src) || p.src[p.pos] != '(' {
		return "", p.errorf("expected filter")
	}
	start := p.pos
	depth := 0
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '\\':
			p.pos++ // skip escaped byte marker; hex digits are plain text
		case '(':
			depth++
			if err := p.count(depth); err != nil {
				return "", err
			}
		case ')':
			depth--
			if depth == 0 {
				p.pos++
				return p.src[start:p.pos], nil
			}
		}
		p.pos++
	}
	return "", p.errorf("unbalanced filter starting at %d", start)
}

// count records one more node, query or filter (each opens one '('),
// nested extra levels below the current query node.
func (p *qparser) count(extra int) error {
	if p.nodes++; p.depth+extra > proto.MaxDepth || p.nodes > proto.MaxNodes {
		return fmt.Errorf("hquery: %s: more than %d deep or %d nodes", proto.TooComplex, proto.MaxDepth, proto.MaxNodes)
	}
	return nil
}

func (p *qparser) readWord() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && !strings.ContainsRune(" \t\n\r()@", rune(p.src[p.pos])) {
		p.pos++
	}
	return p.src[start:p.pos]
}

func (p *qparser) closeParen() error {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != ')' {
		return p.errorf("expected ')'")
	}
	p.pos++
	return nil
}
