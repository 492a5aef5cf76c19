package core

import (
	"fmt"

	"boundschema/internal/dirtree"
)

// Schema is a directory bounding-schema S = (A, H, S) (Definition 2.5):
// the attribute schema, the class schema and the structure schema, plus
// the attribute typing function τ (a dirtree.Registry, optional).
type Schema struct {
	Attrs     *AttributeSchema
	Classes   *ClassSchema
	Structure *StructureSchema
	Registry  *dirtree.Registry

	// keys holds the Section 6.1 key attributes (instance-wide unique
	// values); see DeclareKey.
	keys map[string]struct{}
}

// NewSchema returns an empty, well-formed schema (class hierarchy
// containing only top; no attributes; no structural elements).
func NewSchema() *Schema {
	return &Schema{
		Attrs:     NewAttributeSchema(),
		Classes:   NewClassSchema(),
		Structure: NewStructureSchema(),
		Registry:  dirtree.NewRegistry(),
	}
}

// Validate checks cross-component well-formedness:
//
//   - ρr(c) ⊆ ρa(c) in the attribute schema;
//   - every class given attributes is declared in the class schema;
//   - every class mentioned in the structure schema is a declared *core*
//     class (Definition 2.4 draws Cr, Er and Ef from Cc).
//
// Validate checks shape, not satisfiability; use Consistent for the
// Section 5 analysis.
func (s *Schema) Validate() error {
	if err := s.Attrs.Validate(); err != nil {
		return err
	}
	for _, c := range s.Attrs.Classes() {
		if !s.Classes.Declared(c) {
			return fmt.Errorf("core: attribute schema mentions undeclared class %s", c)
		}
	}
	for _, c := range s.Structure.Classes() {
		if !s.Classes.IsCore(c) {
			return fmt.Errorf("core: structure schema mentions %s, which is not a declared core class", c)
		}
	}
	return nil
}

// Elements returns every schema element of the class and structure
// schemas — the set Φ of Theorem 5.1 — in a deterministic order:
// required classes, required relationships, forbidden relationships,
// subclass co-occurrences, and disjointness co-occurrences.
func (s *Schema) Elements() []Element {
	out := s.Structure.elements()
	cores := s.Classes.CoreClasses()
	for _, c := range cores {
		if p, ok := s.Classes.Superclass(c); ok {
			out = append(out, Subclass{Sub: c, Super: p})
		}
	}
	for i, c1 := range cores {
		for _, c2 := range cores[i+1:] {
			if s.Classes.Disjoint(c1, c2) {
				out = append(out, Disjoint{A: c1, B: c2})
			}
		}
	}
	return out
}

// Clone returns an independent deep copy (sharing the immutable registry).
func (s *Schema) Clone() *Schema {
	out := &Schema{
		Attrs:     s.Attrs.Clone(),
		Classes:   s.Classes.Clone(),
		Structure: s.Structure.Clone(),
		Registry:  s.Registry,
	}
	for k := range s.keys {
		out.DeclareKey(k)
	}
	return out
}

// Satisfies implements the satisfaction relation D ⊨ φ of Definition 2.6
// by direct evaluation of the element's semantics. It is the reference
// implementation the query-based checker is differentially tested
// against; use Checker for the efficient path.
func Satisfies(d *dirtree.Directory, el Element) bool {
	switch e := el.(type) {
	case RequiredClass:
		if e.Class == ClassNone {
			return false // no entry may belong to ∅
		}
		return d.ClassCount(e.Class) > 0

	case RequiredRel:
		for _, src := range d.ClassEntries(e.Source) {
			if !hasAxisWitness(src, e.Axis, e.Target) {
				return false
			}
		}
		return true

	case ForbiddenRel:
		for _, upper := range d.ClassEntries(e.Upper) {
			switch e.Axis {
			case AxisChild:
				for _, c := range upper.Children() {
					if c.HasClass(e.Lower) {
						return false
					}
				}
			case AxisDesc:
				if descendantHasClass(upper, e.Lower) {
					return false
				}
			}
		}
		return true

	case Subclass:
		for _, src := range d.ClassEntries(e.Sub) {
			if !src.HasClass(e.Super) {
				return false
			}
		}
		return true

	case Disjoint:
		for _, src := range d.ClassEntries(e.A) {
			if src.HasClass(e.B) {
				return false
			}
		}
		return true
	}
	return false
}

func hasAxisWitness(e *dirtree.Entry, axis Axis, class string) bool {
	if class == ClassNone {
		return false
	}
	switch axis {
	case AxisChild:
		for _, c := range e.Children() {
			if c.HasClass(class) {
				return true
			}
		}
	case AxisDesc:
		return descendantHasClass(e, class)
	case AxisParent:
		p := e.Parent()
		return p != nil && p.HasClass(class)
	case AxisAnc:
		for p := e.Parent(); p != nil; p = p.Parent() {
			if p.HasClass(class) {
				return true
			}
		}
	}
	return false
}

func descendantHasClass(e *dirtree.Entry, class string) bool {
	for _, c := range e.Children() {
		if c.HasClass(class) || descendantHasClass(c, class) {
			return true
		}
	}
	return false
}
