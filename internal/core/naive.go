package core

import (
	"fmt"

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
					r.Add(Violation{Kind: ViolationDuplicateKey, Entry: e,
						Detail: fmt.Sprintf("key %s=%q already used by %s", attr, v.String(), prev.DN())})
					continue
				}
				seen[kv] = e
			}
		}
	}
	return r
}
