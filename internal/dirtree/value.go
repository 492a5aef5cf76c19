// Package dirtree implements the directory data model of Section 2.1 of
// "On Bounding-Schemas for LDAP Directories" (EDBT 2000): a forest of
// directory entries, each holding a set of (attribute, value) pairs and a
// set of object classes, with the special attribute objectClass kept in
// sync with the class set (Definition 2.1).
//
// The package also provides the machinery the legality-testing algorithms
// of Sections 3 and 4 rely on: a pre/post-order interval encoding for
// constant-time ancestor/descendant tests, per-class posting lists sorted
// in document (pre-) order, and instance views (∅, Δ, D−Δ, D+Δ) over a
// single forest, used by the incremental Δ-queries of Figure 5.
package dirtree

import (
	"fmt"
	"strconv"
	"strings"
)

// Type identifies the domain of an attribute value. The paper assumes a set
// T of types with dom(t) and a typing function τ : A → T (Definition 2.1);
// Type enumerates the concrete domains this implementation supports.
type Type int

// Supported value types. typeString is the default for attributes that have
// not been declared in a Registry, mirroring LDAP's directoryString syntax.
const (
	typeString Type = iota // free-form UTF-8 string
	TypeInt                // signed 64-bit integer
	TypeBool               // boolean
	TypeDN                 // distinguished name reference
	TypeTel                // telephone number (string with relaxed matching)
)

var typeNames = [...]string{
	typeString: "string",
	TypeInt:    "integer",
	TypeBool:   "boolean",
	TypeDN:     "dn",
	TypeTel:    "telephone",
}

// String returns the lowercase name of the type as used by the schema DSL.
func (t Type) String() string {
	if t < 0 || int(t) >= len(typeNames) {
		return fmt.Sprintf("type(%d)", int(t))
	}
	return typeNames[t]
}

// ParseType maps a type name from the schema DSL back to a Type.
func ParseType(s string) (Type, error) {
	for i, n := range typeNames {
		if n == s {
			return Type(i), nil
		}
	}
	return 0, fmt.Errorf("dirtree: unknown type %q", s)
}

// Value is an immutable attribute value tagged with its type. The zero
// Value is the empty string.
type Value struct {
	typ Type
	s   string
	i   int64
	b   bool
}

// String constructs a string-typed value.
func String(s string) Value { return Value{typ: typeString, s: s} }

// Int constructs an integer-typed value.
func Int(i int64) Value { return Value{typ: TypeInt, i: i} }

// Bool constructs a boolean-typed value.
func Bool(b bool) Value { return Value{typ: TypeBool, b: b} }

// DN constructs a distinguished-name-typed value.
func DN(dn string) Value { return Value{typ: TypeDN, s: dn} }

// Tel constructs a telephone-number-typed value.
func Tel(num string) Value { return Value{typ: TypeTel, s: num} }

// Type reports the type tag of the value.
func (v Value) Type() Type { return v.typ }

// String renders the value in its LDIF text form.
func (v Value) String() string {
	switch v.typ {
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeBool:
		if v.b {
			return "TRUE"
		}
		return "FALSE"
	default:
		return v.s
	}
}

// Int returns the integer payload; it is zero for non-integer values.
func (v Value) Int() int64 { return v.i }

// Bool returns the boolean payload; it is false for non-boolean values.
func (v Value) Bool() bool { return v.b }

// Equal reports whether two values have the same type and payload.
func (v Value) Equal(w Value) bool { return v == w }

// Compare orders values of the same type: negative if v < w, zero if equal,
// positive if v > w. Values of different types are ordered by type tag, so
// Compare is a total order usable for sorting heterogeneous value lists.
func (v Value) Compare(w Value) int {
	if v.typ != w.typ {
		return int(v.typ) - int(w.typ)
	}
	switch v.typ {
	case TypeInt:
		switch {
		case v.i < w.i:
			return -1
		case v.i > w.i:
			return 1
		}
		return 0
	case TypeBool:
		switch {
		case !v.b && w.b:
			return -1
		case v.b && !w.b:
			return 1
		}
		return 0
	default:
		return strings.Compare(v.s, w.s)
	}
}

// ParseValue interprets a textual value according to the given type,
// inverting Value.String.
func ParseValue(t Type, text string) (Value, error) {
	switch t {
	case typeString:
		return String(text), nil
	case TypeInt:
		i, err := strconv.ParseInt(strings.TrimSpace(text), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("dirtree: bad integer %q: %v", text, err)
		}
		return Int(i), nil
	case TypeBool:
		switch strings.ToUpper(strings.TrimSpace(text)) {
		case "TRUE", "1":
			return Bool(true), nil
		case "FALSE", "0":
			return Bool(false), nil
		}
		return Value{}, fmt.Errorf("dirtree: bad boolean %q", text)
	case TypeDN:
		return DN(text), nil
	case TypeTel:
		return Tel(text), nil
	}
	return Value{}, fmt.Errorf("dirtree: unknown type %v", t)
}

// Registry implements the typing function τ : A → T of Definition 2.1. All
// attributes live in a single namespace (Section 2.4): an attribute's type
// is independent of the object classes it appears in. Attributes that have
// not been declared default to typeString, matching common LDAP deployments
// where undeclared attributes are treated as directory strings.
//
// A Registry may also mark attributes single-valued, implementing the
// "Numeric Restrictions" extension discussed in Section 6.1.
//
// The zero Registry is ready to use.
type Registry struct {
	types  map[string]Type
	single map[string]bool
}

// NewRegistry returns an empty attribute registry with objectClass
// pre-declared as a (multi-valued) string attribute, as the paper assumes
// (τ(objectClass) = string).
func NewRegistry() *Registry {
	r := &Registry{}
	r.Declare(AttrObjectClass, typeString)
	return r
}

// Declare records the type of an attribute, overwriting any previous
// declaration.
func (r *Registry) Declare(attr string, t Type) {
	if r.types == nil {
		r.types = make(map[string]Type)
	}
	r.types[attr] = t
}

// DeclareSingle records the type of an attribute and marks it
// single-valued: a legal entry may carry at most one value for it.
func (r *Registry) DeclareSingle(attr string, t Type) {
	r.Declare(attr, t)
	if r.single == nil {
		r.single = make(map[string]bool)
	}
	r.single[attr] = true
}

// Type returns the declared type of attr, or typeString if undeclared.
func (r *Registry) Type(attr string) Type {
	if r == nil || r.types == nil {
		return typeString
	}
	if t, ok := r.types[attr]; ok {
		return t
	}
	return typeString
}

// Declared reports whether attr has been explicitly declared.
func (r *Registry) Declared(attr string) bool {
	if r == nil || r.types == nil {
		return false
	}
	_, ok := r.types[attr]
	return ok
}

// SingleValued reports whether attr was declared single-valued.
func (r *Registry) SingleValued(attr string) bool {
	return r != nil && r.single != nil && r.single[attr]
}

// Attrs returns the declared attribute names in unspecified order.
func (r *Registry) Attrs() []string {
	if r == nil {
		return nil
	}
	out := make([]string, 0, len(r.types))
	for a := range r.types {
		out = append(out, a)
	}
	return out
}

// CheckValue verifies that v is in dom(τ(attr)), condition 3(a) of
// Definition 2.1.
func (r *Registry) CheckValue(attr string, v Value) error {
	want := r.Type(attr)
	if v.Type() != want {
		return fmt.Errorf("dirtree: attribute %s requires %v value, got %v", attr, want, v.Type())
	}
	return nil
}
