package core

import (
	"fmt"
	"slices"

	"boundschema/internal/dirtree"
)

// NaiveStructureCheck is the straightforward structure-schema test that
// Section 3.2 improves upon: it compares every (parent, child) pair and
// every (ancestor, descendant) pair against the structure schema, taking
// O((|Er| + |Ef|) · |D|²) time. It exists as the experimental baseline
// (experiment E4 of DESIGN.md) and as a differential-testing oracle; the
// verdict is identical to Checker.CheckStructure.
func NaiveStructureCheck(s *Schema, d *dirtree.Directory) *Report {
	r := &Report{}
	entries := d.Entries()

	for _, cls := range s.Structure.RequiredClasses() {
		found := false
		for _, e := range entries {
			if e.HasClass(cls) {
				found = true
				break
			}
		}
		if !found {
			r.Add(Violation{Kind: ViolationMissingClass,
				Element: RequiredClass{Class: cls},
				Detail:  "no entry belongs to required class " + cls})
		}
	}

	for _, rel := range s.Structure.RequiredRels() {
		for _, ei := range entries {
			if !ei.HasClass(rel.Source) {
				continue
			}
			// Scan every other entry for a witness, testing the pair
			// relationship positionally — the quadratic strategy.
			found := false
			for _, ej := range entries {
				if ej == ei || !ej.HasClass(rel.Target) {
					continue
				}
				if pairRelated(ei, rel.Axis, ej) {
					found = true
					break
				}
			}
			if !found {
				r.Add(Violation{Kind: ViolationRequiredRel, Entry: ei, Element: rel})
			}
		}
	}

	for _, rel := range s.Structure.ForbiddenRels() {
		for _, ei := range entries {
			if !ei.HasClass(rel.Upper) {
				continue
			}
			for _, ej := range entries {
				if ej == ei || !ej.HasClass(rel.Lower) {
					continue
				}
				if pairRelated(ei, rel.Axis, ej) {
					r.Add(Violation{Kind: ViolationForbiddenRel, Entry: ei, Element: rel})
					break
				}
			}
		}
	}
	return r
}

// pairRelated tests one (ei, ej) pair against one axis using only parent
// pointers, as the naive algorithm would.
func pairRelated(ei *dirtree.Entry, axis Axis, ej *dirtree.Entry) bool {
	switch axis {
	case AxisChild:
		return ej.Parent() == ei
	case AxisDesc:
		for p := ej.Parent(); p != nil; p = p.Parent() {
			if p == ei {
				return true
			}
		}
	case AxisParent:
		return ei.Parent() == ej
	case AxisAnc:
		for p := ei.Parent(); p != nil; p = p.Parent() {
			if p == ej {
				return true
			}
		}
	}
	return false
}

// naiveKeyCheck is the key-uniqueness reference that DiffEngines holds
// Checker.CheckKeys against: one map, filled entry by entry in pre-order,
// where a value already held by another entry is a duplicate attributed
// to its later holder and naming the first. CheckKeys must produce a
// byte-identical report at every worker count.
func naiveKeyCheck(s *Schema, d *dirtree.Directory) *Report {
	r := &Report{}
	seen := make(map[keyVal]*dirtree.Entry)
	for _, e := range d.Entries() {
		for _, attr := range s.Keys() {
			for _, v := range e.Attr(attr) {
				kv := keyVal{attr: attr, value: v.String()}
				if prev, dup := seen[kv]; dup && prev != e {
					r.Add(Violation{Kind: violationDuplicateKey, Entry: e,
						Detail: fmt.Sprintf("key %s=%q already used by %s", attr, v.String(), prev.DN())})
					continue
				}
				seen[kv] = e
			}
		}
	}
	return r
}

// naiveContentCheck is the content-schema reference that DiffEngines
// holds Checker.CheckContent against: every entry, in pre-order, decided
// from scratch against the class schema (Definition 2.3), the attribute
// schema (Definition 2.2) and the registry's typing, with no state shared
// between entries. CheckContent, which decides each class set once
// (legality.go), must produce a byte-identical report at every worker
// count.
func naiveContentCheck(s *Schema, d *dirtree.Directory) *Report {
	r := &Report{}
	for _, e := range d.Entries() {
		naiveCheckEntry(s, e, r)
	}
	return r
}

func naiveCheckEntry(s *Schema, e *dirtree.Entry, r *Report) {
	cs := s.Classes
	var classBuf, attrBuf [16]string
	var chainBuf [8]string
	classes := e.AppendClasses(classBuf[:0])

	// Class schema, condition 1: only declared object classes.
	for _, cls := range classes {
		if !cs.Declared(cls) {
			r.Add(Violation{Kind: violationUnknownClass, Entry: e,
				Detail: fmt.Sprintf("object class %s is not declared in the schema", cls)})
		}
	}

	// Class schema, condition 2: at least one core class; and find the
	// deepest core class for the single-inheritance check.
	deepest, nCore := "", 0
	for _, cls := range classes {
		if cs.IsCore(cls) {
			nCore++
			if deepest == "" || cs.DepthOf(cls) > cs.DepthOf(deepest) {
				deepest = cls
			}
		}
	}
	if nCore == 0 {
		r.Add(Violation{Kind: violationNoCoreClass, Entry: e,
			Detail: "entry belongs to no core object class"})
	} else {
		// Condition 3 (single inheritance): the entry's core classes must
		// be exactly the superclass chain of its deepest core class — the
		// chain members must all be present (ci ⇒ cj) and nothing off the
		// chain may be present (ci ⊗ cj). Walking one chain of length
		// ≤ depth(H) checks both directions.
		chain := chainBuf[:0]
		for sup, ok := deepest, true; ok; sup, ok = cs.Superclass(sup) {
			chain = append(chain, sup)
			if !e.HasClass(sup) {
				r.Add(Violation{Kind: violationInheritance, Entry: e,
					Element: Subclass{Sub: deepest, Super: sup},
					Detail:  fmt.Sprintf("belongs to %s but not to its superclass %s", deepest, sup)})
			}
		}
		for _, cls := range classes {
			if !cs.IsCore(cls) {
				continue
			}
			if !slices.Contains(chain, cls) {
				r.Add(Violation{Kind: violationIncomparable, Entry: e,
					Element: Disjoint{A: deepest, B: cls},
					Detail:  fmt.Sprintf("core classes %s and %s are incomparable", deepest, cls)})
			}
		}
	}

	// Class schema, condition 4: every auxiliary class must be allowed by
	// some core class of the entry.
	for _, cls := range classes {
		if !cs.IsAux(cls) {
			continue
		}
		ok := false
		for _, cc := range classes {
			if cs.IsCore(cc) && cs.AuxAllowed(cc, cls) {
				ok = true
				break
			}
		}
		if !ok {
			r.Add(Violation{Kind: violationDisallowedAux, Entry: e,
				Detail: fmt.Sprintf("auxiliary class %s is not allowed by any of the entry's core classes", cls)})
		}
	}

	// Attribute schema, condition 1: required attributes present.
	as := s.Attrs
	for _, cls := range classes {
		// The sorted ρr(c) only fixes the order of the violations, so it is
		// built only when there is one to report.
		missing := false
		for a := range as.required[cls] {
			if !e.HasAttr(a) {
				missing = true
				break
			}
		}
		if !missing {
			continue
		}
		for _, a := range as.Required(cls) {
			if !e.HasAttr(a) {
				r.Add(Violation{Kind: violationMissingAttr, Entry: e,
					Detail: fmt.Sprintf("class %s requires attribute %s", cls, a)})
			}
		}
	}

	// Attribute schema, condition 2: only allowed attributes present.
	// objectClass is implicitly allowed everywhere (Definition 2.1 ties
	// it to the class set).
	attrs := e.AppendAttrNames(attrBuf[:0])
	for _, a := range attrs {
		if a == dirtree.AttrObjectClass {
			continue
		}
		ok := false
		for _, cls := range classes {
			if as.IsAllowed(cls, a) {
				ok = true
				break
			}
		}
		if !ok {
			r.Add(Violation{Kind: violationDisallowedAttr, Entry: e,
				Detail: fmt.Sprintf("attribute %s is allowed by none of the entry's classes", a)})
		}
	}

	// Typing (Definition 2.1 condition 3(a)) and single-valued
	// declarations (Section 6.1), when a registry is present.
	if reg := s.Registry; reg != nil {
		for _, a := range attrs {
			if a == dirtree.AttrObjectClass {
				continue
			}
			vs := e.Attr(a)
			for _, v := range vs {
				if err := reg.CheckValue(a, v); err != nil {
					r.Add(Violation{Kind: violationTyping, Entry: e, Detail: err.Error()})
					break
				}
			}
			if reg.SingleValued(a) && len(vs) > 1 {
				r.Add(Violation{Kind: violationTyping, Entry: e,
					Detail: fmt.Sprintf("attribute %s is single-valued but has %d values", a, len(vs))})
			}
		}
	}
}
