// Package filter implements an LDAP search filter language (an RFC 2254 /
// RFC 1960 subset) over directory entries: the atomic selection conditions
// of the hierarchical query language of Jagadish et al. [9] that the
// structure-schema legality tests of Section 3.2 reduce to.
//
// Supported forms:
//
//	(attr=value)       equality (value "*" alone means presence)
//	(attr=ab*cd*ef)    substring match with leading/trailing/inner parts
//	(attr>=value)      ordering, using the attribute's value order
//	(attr<=value)
//	(attr~=value)      approximate match (case- and whitespace-insensitive)
//	(&(f1)(f2)...)     conjunction
//	(|(f1)(f2)...)     disjunction
//	(!(f))             negation
package filter

import (
	"fmt"
	"strings"

	"boundschema/internal/dirtree"
)

// Filter is a parsed search filter. Implementations are immutable and safe
// for concurrent use.
type Filter interface {
	// Matches reports whether the entry satisfies the filter.
	Matches(e *dirtree.Entry) bool
	// String renders the filter in its parenthesized source form.
	String() string
}

// And is the conjunction of its sub-filters; an empty And matches
// everything (the LDAP "and" identity).
type And []Filter

// Matches implements Filter.
func (f And) Matches(e *dirtree.Entry) bool {
	for _, sub := range f {
		if !sub.Matches(e) {
			return false
		}
	}
	return true
}

func (f And) String() string { return render(f) }

// or is the disjunction of its sub-filters; an empty or matches nothing.
type or []Filter

// Matches implements Filter.
func (f or) Matches(e *dirtree.Entry) bool {
	for _, sub := range f {
		if sub.Matches(e) {
			return true
		}
	}
	return false
}

func (f or) String() string { return render(f) }

// render writes f through one builder, linear in f's size; rendering
// each sub-filter to a string at every level is quadratic in depth.
func render(f Filter) string {
	var b strings.Builder
	write(&b, f)
	return b.String()
}

func write(b *strings.Builder, f Filter) {
	var open string
	var subs []Filter
	switch f := f.(type) {
	case And:
		open, subs = "(&", f
	case or:
		open, subs = "(|", f
	case not:
		open, subs = "(!", []Filter{f.Sub}
	default:
		b.WriteString(f.String())
		return
	}
	b.WriteString(open)
	for _, sub := range subs {
		write(b, sub)
	}
	b.WriteByte(')')
}

// not negates its sub-filter.
type not struct{ Sub Filter }

// Matches implements Filter.
func (f not) Matches(e *dirtree.Entry) bool { return !f.Sub.Matches(e) }

func (f not) String() string { return render(f) }

// CompareOp distinguishes the atomic comparison forms.
type CompareOp int

// Atomic comparison operators.
const (
	OpEqual   CompareOp = iota // =
	OpGE                       // >=
	OpLE                       // <=
	opApprox                   // ~=
	OpPresent                  // =* (presence)
)

func (op CompareOp) String() string {
	switch op {
	case OpEqual:
		return "="
	case OpGE:
		return ">="
	case OpLE:
		return "<="
	case opApprox:
		return "~="
	case OpPresent:
		return "=*"
	}
	return "?"
}

// Compare is an atomic comparison (attr op value). For OpPresent the Value
// field is unused.
type Compare struct {
	Attr  string
	Op    CompareOp
	Value string
}

// Matches implements Filter.
func (f Compare) Matches(e *dirtree.Entry) bool {
	if f.Op == OpPresent {
		return e.HasAttr(f.Attr)
	}
	// objectClass enjoys a fast path: Definition 2.1 ties its values to
	// the class set, and it is by far the most common atom (Figure 4
	// translates every structure-schema element to objectClass atoms).
	if f.Op == OpEqual && f.Attr == dirtree.AttrObjectClass {
		return e.HasClass(f.Value)
	}
	for _, v := range e.Attr(f.Attr) {
		if f.compareValue(e, v) {
			return true
		}
	}
	return false
}

func (f Compare) compareValue(e *dirtree.Entry, v dirtree.Value) bool {
	switch f.Op {
	case OpEqual:
		// Parse the query value through the registry, like the range ops:
		// for a TypeInt attribute (port=080) must match the entry that
		// (port>=80)&(port<=80) matches. Text that does not parse as the
		// attribute's type falls back to a raw string comparison.
		want, err := parseAs(e, f.Attr, f.Value)
		if err != nil {
			return v.String() == f.Value
		}
		return v.Compare(want) == 0
	case opApprox:
		return normalize(v.String()) == normalize(f.Value)
	case OpGE, OpLE:
		want, err := parseAs(e, f.Attr, f.Value)
		if err != nil {
			return false
		}
		c := v.Compare(want)
		if f.Op == OpGE {
			return c >= 0
		}
		return c <= 0
	}
	return false
}

func parseAs(e *dirtree.Entry, attr, text string) (dirtree.Value, error) {
	var reg *dirtree.Registry
	if d := e.Directory(); d != nil {
		reg = d.Registry()
	}
	return dirtree.ParseValue(reg.Type(attr), text)
}

func normalize(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

// String implements Filter.
func (f Compare) String() string {
	if f.Op == OpPresent {
		return "(" + f.Attr + "=*)"
	}
	return "(" + f.Attr + f.Op.String() + escape(f.Value) + ")"
}

// Substring is an atomic substring match (attr=initial*any*...*final).
// Empty Initial/Final mean the pattern starts/ends with '*'.
type Substring struct {
	Attr    string
	Initial string
	Any     []string
	Final   string
}

// Matches implements Filter.
func (f Substring) Matches(e *dirtree.Entry) bool {
	for _, v := range e.Attr(f.Attr) {
		if f.matchText(v.String()) {
			return true
		}
	}
	return false
}

func (f Substring) matchText(s string) bool {
	if f.Initial != "" {
		if !strings.HasPrefix(s, f.Initial) {
			return false
		}
		s = s[len(f.Initial):]
	}
	for _, part := range f.Any {
		i := strings.Index(s, part)
		if i < 0 {
			return false
		}
		s = s[i+len(part):]
	}
	return strings.HasSuffix(s, f.Final)
}

// String implements Filter.
func (f Substring) String() string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(f.Attr)
	b.WriteByte('=')
	b.WriteString(escape(f.Initial))
	b.WriteByte('*')
	for _, part := range f.Any {
		b.WriteString(escape(part))
		b.WriteByte('*')
	}
	b.WriteString(escape(f.Final))
	b.WriteByte(')')
	return b.String()
}

// ClassIs returns the ubiquitous (objectClass=c) filter used throughout
// the Figure 4 translation.
func ClassIs(c string) Filter {
	return Compare{Attr: dirtree.AttrObjectClass, Op: OpEqual, Value: c}
}

// escape protects the special characters ( ) * \ in literal values, per
// RFC 2254 section 4.
func escape(s string) string {
	if !strings.ContainsAny(s, `()*\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', ')', '*', '\\':
			b.WriteByte('\\')
			b.WriteString(fmt.Sprintf("%02x", s[i]))
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}
