package filter

import (
	"fmt"
	"strconv"
	"strings"

	"boundschema/internal/proto"
)

// Parse parses an RFC 2254-style filter string. The outermost parentheses
// are required, as in "(objectClass=person)". A filter nested deeper than
// proto.MaxDepth, or with more than proto.MaxNodes nodes, is refused.
func Parse(src string) (Filter, error) {
	p := &parser{src: src}
	f, err := p.parseFilter()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.errorf("trailing input %q", p.src[p.pos:])
	}
	return f, nil
}

// MustParse is Parse that panics on error, for filters written as program
// literals.
func MustParse(src string) Filter {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

type parser struct {
	src          string
	pos          int
	depth, nodes int
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("filter: at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func (p *parser) expect(c byte) error {
	if p.pos >= len(p.src) || p.src[p.pos] != c {
		return p.errorf("expected %q", string(c))
	}
	p.pos++
	return nil
}

func (p *parser) parseFilter() (Filter, error) {
	p.skipSpace()
	if err := p.expect('('); err != nil {
		return nil, err
	}
	p.depth++
	if p.nodes++; p.depth > proto.MaxDepth || p.nodes > proto.MaxNodes {
		return nil, fmt.Errorf("filter: %s: more than %d deep or %d nodes", proto.TooComplex, proto.MaxDepth, proto.MaxNodes)
	}
	if p.pos >= len(p.src) {
		return nil, p.errorf("unexpected end of filter")
	}
	var f Filter
	var err error
	switch p.src[p.pos] {
	case '&':
		p.pos++
		subs, serr := p.parseFilterList()
		f, err = And(subs), serr
	case '|':
		p.pos++
		subs, serr := p.parseFilterList()
		f, err = Or(subs), serr
	case '!':
		p.pos++
		sub, serr := p.parseFilter()
		f, err = Not{Sub: sub}, serr
	default:
		f, err = p.parseItem()
	}
	if err != nil {
		return nil, err
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	p.depth--
	return f, nil
}

func (p *parser) parseFilterList() ([]Filter, error) {
	var subs []Filter
	for {
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != '(' {
			return subs, nil
		}
		sub, err := p.parseFilter()
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
	}
}

// parseItem parses attr OP value up to (but not consuming) the closing ')'.
func (p *parser) parseItem() (Filter, error) {
	start := p.pos
	for p.pos < len(p.src) && !strings.ContainsRune("=<>~()", rune(p.src[p.pos])) {
		p.pos++
	}
	attr := strings.TrimSpace(p.src[start:p.pos])
	if attr == "" {
		return nil, p.errorf("missing attribute name")
	}
	if p.pos >= len(p.src) {
		return nil, p.errorf("unexpected end of filter")
	}
	var op CompareOp
	switch p.src[p.pos] {
	case '=':
		op = OpEqual
		p.pos++
	case '>':
		p.pos++
		if err := p.expect('='); err != nil {
			return nil, err
		}
		op = OpGE
	case '<':
		p.pos++
		if err := p.expect('='); err != nil {
			return nil, err
		}
		op = OpLE
	case '~':
		p.pos++
		if err := p.expect('='); err != nil {
			return nil, err
		}
		op = OpApprox
	default:
		return nil, p.errorf("expected comparison operator after %q", attr)
	}

	// Scan the raw value up to the closing ')', tracking '*' separators.
	var parts []string
	var cur strings.Builder
	sawStar := false
	for p.pos < len(p.src) && p.src[p.pos] != ')' {
		c := p.src[p.pos]
		switch c {
		case '*':
			parts = append(parts, cur.String())
			cur.Reset()
			sawStar = true
			p.pos++
		case '\\':
			if p.pos+2 >= len(p.src) {
				return nil, p.errorf("truncated escape")
			}
			n, err := strconv.ParseUint(p.src[p.pos+1:p.pos+3], 16, 8)
			if err != nil {
				return nil, p.errorf("bad escape %q", p.src[p.pos:p.pos+3])
			}
			cur.WriteByte(byte(n))
			p.pos += 3
		case '(':
			return nil, p.errorf("unescaped '(' in value")
		default:
			cur.WriteByte(c)
			p.pos++
		}
	}
	parts = append(parts, cur.String())

	if !sawStar {
		return Compare{Attr: attr, Op: op, Value: parts[0]}, nil
	}
	if op != OpEqual {
		return nil, p.errorf("wildcards are only allowed with '='")
	}
	if len(parts) == 2 && parts[0] == "" && parts[1] == "" {
		return Compare{Attr: attr, Op: OpPresent}, nil
	}
	sub := Substring{
		Attr:    attr,
		Initial: parts[0],
		Final:   parts[len(parts)-1],
	}
	if len(parts) > 2 {
		for _, mid := range parts[1 : len(parts)-1] {
			if mid == "" {
				continue // "ab**cd" collapses to "ab*cd"
			}
			sub.Any = append(sub.Any, mid)
		}
	}
	return sub, nil
}
