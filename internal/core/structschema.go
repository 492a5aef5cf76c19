package core

import (
	"fmt"
	"sort"
)

// StructureSchema is the structure schema S = (Cr, Er, Ef) of Definition
// 2.4: required object classes, required structural relationships over the
// four axes, and forbidden structural relationships over child and
// descendant.
type StructureSchema struct {
	required map[string]struct{}      // Cr
	reqRels  map[RequiredRel]struct{} // Er
	forbRels map[ForbiddenRel]struct{}
}

// newStructureSchema returns an empty structure schema.
func newStructureSchema() *StructureSchema {
	return &StructureSchema{
		required: make(map[string]struct{}),
		reqRels:  make(map[RequiredRel]struct{}),
		forbRels: make(map[ForbiddenRel]struct{}),
	}
}

// RequireClass adds c⇓ to Cr.
func (s *StructureSchema) RequireClass(c string) {
	s.required[c] = struct{}{}
}

// RequireRel adds the required structural relationship source →axis target
// to Er.
func (s *StructureSchema) RequireRel(source string, axis Axis, target string) {
	s.reqRels[RequiredRel{Source: source, Axis: axis, Target: target}] = struct{}{}
}

// ForbidRel adds the forbidden structural relationship upper ⇥axis lower
// to Ef. The axis must be AxisChild or AxisDesc (Definition 2.4).
func (s *StructureSchema) ForbidRel(upper string, axis Axis, lower string) error {
	if !axis.Downward() {
		return fmt.Errorf("core: forbidden relationships use the child or descendant axis, not %v", axis)
	}
	s.forbRels[ForbiddenRel{Upper: upper, Axis: axis, Lower: lower}] = struct{}{}
	return nil
}

// RequiredClasses returns Cr, sorted.
func (s *StructureSchema) RequiredClasses() []string { return sortedKeys(s.required) }

// IsRequiredClass reports whether c ∈ Cr.
func (s *StructureSchema) IsRequiredClass(c string) bool {
	_, ok := s.required[c]
	return ok
}

// RequiredRels returns Er in a deterministic order.
func (s *StructureSchema) RequiredRels() []RequiredRel {
	out := make([]RequiredRel, 0, len(s.reqRels))
	for r := range s.reqRels {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		if out[i].Axis != out[j].Axis {
			return out[i].Axis < out[j].Axis
		}
		return out[i].Target < out[j].Target
	})
	return out
}

// ForbiddenRels returns Ef in a deterministic order.
func (s *StructureSchema) ForbiddenRels() []ForbiddenRel {
	out := make([]ForbiddenRel, 0, len(s.forbRels))
	for r := range s.forbRels {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Upper != out[j].Upper {
			return out[i].Upper < out[j].Upper
		}
		if out[i].Axis != out[j].Axis {
			return out[i].Axis < out[j].Axis
		}
		return out[i].Lower < out[j].Lower
	})
	return out
}

// Size returns |S| = |Cr| + |Er| + |Ef|, used in the complexity accounting
// of Theorem 3.1.
func (s *StructureSchema) Size() int {
	return len(s.required) + len(s.reqRels) + len(s.forbRels)
}

// Classes returns every class mentioned anywhere in the structure schema,
// sorted.
func (s *StructureSchema) Classes() []string {
	set := make(map[string]struct{})
	for c := range s.required {
		set[c] = struct{}{}
	}
	for r := range s.reqRels {
		set[r.Source] = struct{}{}
		set[r.Target] = struct{}{}
	}
	for r := range s.forbRels {
		set[r.Upper] = struct{}{}
		set[r.Lower] = struct{}{}
	}
	return sortedKeys(set)
}

// elements returns Cr, Er and Ef as elements, in that order, each sorted.
func (s *StructureSchema) elements() []Element {
	var out []Element
	for _, c := range s.RequiredClasses() {
		out = append(out, RequiredClass{Class: c})
	}
	for _, r := range s.RequiredRels() {
		out = append(out, r)
	}
	for _, r := range s.ForbiddenRels() {
		out = append(out, r)
	}
	return out
}

// has reports whether el is an element of the structure schema.
func (s *StructureSchema) has(el Element) bool {
	var ok bool
	switch e := el.(type) {
	case RequiredClass:
		_, ok = s.required[e.Class]
	case RequiredRel:
		_, ok = s.reqRels[e]
	case ForbiddenRel:
		_, ok = s.forbRels[e]
	}
	return ok
}

// without returns a copy of the structure schema lacking el.
func (s *StructureSchema) without(el Element) *StructureSchema {
	out := s.Clone()
	switch e := el.(type) {
	case RequiredClass:
		delete(out.required, e.Class)
	case RequiredRel:
		delete(out.reqRels, e)
	case ForbiddenRel:
		delete(out.forbRels, e)
	}
	return out
}

// Clone returns an independent deep copy.
func (s *StructureSchema) Clone() *StructureSchema {
	out := newStructureSchema()
	for c := range s.required {
		out.required[c] = struct{}{}
	}
	for r := range s.reqRels {
		out.reqRels[r] = struct{}{}
	}
	for r := range s.forbRels {
		out.forbRels[r] = struct{}{}
	}
	return out
}
