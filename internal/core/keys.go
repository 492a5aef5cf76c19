package core

import (
	"fmt"
	"slices"

	"boundschema/internal/dirtree"
)

// This file implements the Section 6.1 "Keys" discussion: beyond the
// distinguished name (which is a key by construction), other keys "can
// easily be incorporated in our framework as values of attributes", and
// "given the relatively loose notion of an object class, any notion of a
// key in an LDAP directory must be unique across all entries in the
// directory instance, not just within a single object class".
//
// A key attribute therefore demands: no value of the attribute occurs on
// two distinct entries, anywhere in the instance. Checking is a single
// hash pass (CheckKeys); insertions are incrementally testable by probing
// only the inserted subtree's values against the directory's value
// indexes (CheckInsertKeys); deletions cannot violate uniqueness.

// DeclareKey marks an attribute as a key: its values must be unique
// across all entries of any legal instance.
func (s *Schema) DeclareKey(attr string) {
	if s.keys == nil {
		s.keys = make(map[string]struct{})
	}
	s.keys[attr] = struct{}{}
}

// Keys returns the declared key attributes, sorted.
func (s *Schema) Keys() []string { return sortedKeys(s.keys) }

// IsKey reports whether attr was declared a key.
func (s *Schema) IsKey(attr string) bool {
	_, ok := s.keys[attr]
	return ok
}

// CheckKeys verifies instance-wide uniqueness of every key attribute's
// values, one hash pass over the instance. The value extraction is
// chunked across the worker pool; the uniqueness pass over the extracted
// streams replays them in pre-order, so the first holder of every value —
// and therefore the report — does not depend on the worker count.
func (c *Checker) CheckKeys(d *dirtree.Directory) *Report {
	return c.checkKeys(d, c.workersFor(d.Len()))
}

// CheckInsertKeys reports the key violations a grafted subtree Δ (rooted
// at root) introduces — the key analogue of the Figure 5 insertion
// checks, read off the directory's per-attribute value indexes, which
// the graft has already patched. For every key value v on an entry of Δ,
// d.ValueEntries(attr, v) may hold no entry outside Δ, except entries
// under one of the deleting roots (a moved subtree's origin, which the
// same update removes; tested by interval); nor may an earlier entry of
// Δ hold it. On a legal instance each probe returns at most two
// postings, so the check costs O(|Δ| values). Deletions cannot violate
// uniqueness.
func (c *Checker) CheckInsertKeys(d *dirtree.Directory, root *dirtree.Entry, deleting []string) *Report {
	r := &Report{}
	keys := c.schema.Keys()
	if len(keys) == 0 {
		return r
	}
	for _, e := range d.SubtreeView(root).Entries() {
		for _, attr := range keys {
			vs := e.Attr(attr)
			for i, v := range vs {
				posts := d.ValueEntries(attr, v)
				if h := outsideHolder(d, posts, root, deleting); h != nil {
					r.Add(Violation{Kind: ViolationDuplicateKey, Entry: e,
						Detail: fmt.Sprintf("key %s=%q already used by %s", attr, v.String(), h.DN())})
					continue
				}
				// posts is in pre-order and holds e, so its first posting
				// inside Δ is Δ's earliest holder of v.
				first := e
				for _, h := range posts {
					if h.Pre() >= root.Pre() {
						first = h
						break
					}
				}
				if first != e || slices.Contains(vs[:i], v) {
					r.Add(Violation{Kind: ViolationDuplicateKey, Entry: e,
						Detail: fmt.Sprintf("key %s=%q duplicated within the insertion (also on %s)", attr, v.String(), first.DN())})
				}
			}
		}
	}
	return r
}

// outsideHolder returns the first of posts lying outside the subtree of
// root and outside every deleting root's subtree, or nil.
func outsideHolder(d *dirtree.Directory, posts []*dirtree.Entry, root *dirtree.Entry, deleting []string) *dirtree.Entry {
	for _, h := range posts {
		if root.Pre() <= h.Pre() && h.Pre() <= root.Post() {
			continue
		}
		excused := false
		for _, dn := range deleting {
			if o := d.ByDN(dn); o != nil && o.Pre() <= h.Pre() && h.Pre() <= o.Post() {
				excused = true
				break
			}
		}
		if !excused {
			return h
		}
	}
	return nil
}

// NewKeyIndex only builds the key attributes' value indexes over d.
//
// Deprecated: key uniqueness is checked by CheckInsertKeys against the
// directory's own value indexes; bench/layers.go is the last caller.
func NewKeyIndex(s *Schema, d *dirtree.Directory) {
	for _, attr := range s.Keys() {
		d.ValuePairs(attr)
	}
}
