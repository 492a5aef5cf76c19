package core

import (
	"fmt"
	"sort"
)

// AttributeSchema is the attribute schema A = (C, A, ρr, ρa) of Definition
// 2.2: per-object-class required and allowed attribute sets, with the
// invariant ρr(c) ⊆ ρa(c) maintained by construction (Require adds to both
// sets). This component matches the standard LDAP schema specification.
//
// The zero value is an empty attribute schema ready to use.
type AttributeSchema struct {
	attrs    map[string]struct{}            // A: the attribute universe
	required map[string]map[string]struct{} // ρr
	allowed  map[string]map[string]struct{} // ρa
}

// newAttributeSchema returns an empty attribute schema.
func newAttributeSchema() *AttributeSchema { return &AttributeSchema{} }

func (s *AttributeSchema) init() {
	if s.attrs == nil {
		s.attrs = make(map[string]struct{})
		s.required = make(map[string]map[string]struct{})
		s.allowed = make(map[string]map[string]struct{})
	}
}

// Require declares attrs as required attributes of class c. Required
// attributes are automatically allowed.
func (s *AttributeSchema) Require(c string, attrs ...string) {
	s.init()
	for _, a := range attrs {
		s.attrs[a] = struct{}{}
		addTo(s.required, c, a)
		addTo(s.allowed, c, a)
	}
}

// Allow declares attrs as allowed attributes of class c.
func (s *AttributeSchema) Allow(c string, attrs ...string) {
	s.init()
	for _, a := range attrs {
		s.attrs[a] = struct{}{}
		addTo(s.allowed, c, a)
	}
}

func addTo(m map[string]map[string]struct{}, c, a string) {
	set := m[c]
	if set == nil {
		set = make(map[string]struct{})
		m[c] = set
	}
	set[a] = struct{}{}
}

// Required returns ρr(c), sorted.
func (s *AttributeSchema) Required(c string) []string { return sortedKeys(s.required[c]) }

// Allowed returns ρa(c), sorted.
func (s *AttributeSchema) Allowed(c string) []string { return sortedKeys(s.allowed[c]) }

// IsRequired reports whether a ∈ ρr(c).
func (s *AttributeSchema) IsRequired(c, a string) bool {
	_, ok := s.required[c][a]
	return ok
}

// IsAllowed reports whether a ∈ ρa(c).
func (s *AttributeSchema) IsAllowed(c, a string) bool {
	_, ok := s.allowed[c][a]
	return ok
}

// NumAllowed returns |ρa(c)|, used in the complexity accounting of
// Theorem 3.1.
func (s *AttributeSchema) NumAllowed(c string) int { return len(s.allowed[c]) }

// Attrs returns the attribute universe A, sorted.
func (s *AttributeSchema) Attrs() []string { return sortedKeys(s.attrs) }

// Classes returns every class that has a required or allowed attribute,
// sorted.
func (s *AttributeSchema) Classes() []string {
	set := make(map[string]struct{}, len(s.allowed))
	for c := range s.allowed {
		set[c] = struct{}{}
	}
	for c := range s.required {
		set[c] = struct{}{}
	}
	return sortedKeys(set)
}

// Clone returns an independent deep copy.
func (s *AttributeSchema) Clone() *AttributeSchema {
	out := newAttributeSchema()
	for c, set := range s.required {
		for a := range set {
			out.Require(c, a)
		}
	}
	for c, set := range s.allowed {
		for a := range set {
			out.Allow(c, a)
		}
	}
	return out
}

// Validate checks internal well-formedness: ρr(c) ⊆ ρa(c) for all classes.
// The invariant holds by construction; Validate guards schemas assembled
// by other means (e.g. reflection or future deserializers).
func (s *AttributeSchema) Validate() error {
	for c, req := range s.required {
		for a := range req {
			if _, ok := s.allowed[c][a]; !ok {
				return fmt.Errorf("core: class %s requires attribute %s but does not allow it", c, a)
			}
		}
	}
	return nil
}

func sortedKeys(m map[string]struct{}) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
