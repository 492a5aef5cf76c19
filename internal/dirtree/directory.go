package dirtree

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Directory is a directory instance D = (R, class, val, N): a finite forest
// of entries (Definition 2.1). It maintains, lazily, a pre/post-order
// interval encoding of the forest and per-class posting lists sorted by
// pre-order — the "sorted directory entries" that the hierarchical query
// evaluation of Section 3.2 relies on for its O(|Q|·|D|) bound.
//
// A Directory is not safe for concurrent mutation; concurrent read-only use
// is safe once EnsureEncoded has been called.
type Directory struct {
	reg    *Registry
	roots  []*Entry
	byID   map[int]*Entry
	byDN   map[string]*Entry
	nextID int

	epoch        uint64
	encodedEpoch uint64
	order        []*Entry            // all entries in pre-order
	classIndex   map[string][]*Entry // per-class posting lists, pre-order
	grafting     bool                // GraftSubtree is assembling a subtree (patch once at the end)

	// Attribute-value secondary indexes (attrindex.go), built lazily per
	// attribute and patched alongside the encoding. attrMu serializes the
	// lazy builds that happen on otherwise read-only probe paths.
	attrMu    sync.Mutex
	attrTrees map[string]*bptree
	attrStale bool // trees lag the instance; drop and rebuild on next probe
}

// New returns an empty directory using reg for attribute typing. A nil reg
// leaves all attributes string-typed and multi-valued.
func New(reg *Registry) *Directory {
	return &Directory{
		reg:          reg,
		byID:         make(map[int]*Entry),
		byDN:         make(map[string]*Entry),
		epoch:        1, // force initial encoding
		encodedEpoch: 0,
	}
}

// Registry returns the attribute registry the directory was created with;
// it may be nil.
func (d *Directory) Registry() *Registry { return d.reg }

// Len returns |D|, the number of entries.
func (d *Directory) Len() int { return len(d.byID) }

// Roots returns the forest roots. The slice is owned by the directory.
func (d *Directory) Roots() []*Entry { return d.roots }

// ByDN returns the entry with the given distinguished name, or nil.
func (d *Directory) ByDN(dn string) *Entry { return d.byDN[dn] }

// ByID returns the entry with the given identifier, or nil.
func (d *Directory) ByID(id int) *Entry { return d.byID[id] }

func (d *Directory) touchContent()   { d.epoch++ }
func (d *Directory) touchStructure() { d.epoch++ }

// AddRoot creates a new forest root. LDAP permits new entries only as roots
// or as children of existing entries (Section 4.1); AddRoot covers the
// first case.
func (d *Directory) AddRoot(rdn string, classes ...string) (*Entry, error) {
	return d.add(nil, rdn, classes)
}

// AddChild creates a new entry as a child of parent, which must belong to
// this directory.
func (d *Directory) AddChild(parent *Entry, rdn string, classes ...string) (*Entry, error) {
	if parent == nil {
		return nil, fmt.Errorf("dirtree: AddChild with nil parent")
	}
	if parent.dir != d {
		return nil, fmt.Errorf("dirtree: parent %s belongs to a different directory", parent.DN())
	}
	return d.add(parent, rdn, classes)
}

func (d *Directory) add(parent *Entry, rdn string, classes []string) (*Entry, error) {
	if rdn == "" || strings.Contains(rdn, ",") {
		return nil, fmt.Errorf("dirtree: invalid RDN %q", rdn)
	}
	e := &Entry{
		dir:     d,
		id:      d.nextID,
		rdn:     rdn,
		parent:  parent,
		classes: make(map[string]struct{}, len(classes)),
	}
	dn := e.DN()
	if d.byDN[dn] != nil {
		return nil, fmt.Errorf("dirtree: entry %s already exists", dn)
	}
	d.nextID++
	for _, c := range classes {
		e.classes[c] = struct{}{}
	}
	if parent == nil {
		d.roots = append(d.roots, e)
	} else {
		parent.children = append(parent.children, e)
	}
	d.byID[e.id] = e
	d.byDN[dn] = e
	if d.patchable() {
		// The new entry is the last child (or last root): splice it into
		// the current encoding instead of invalidating it (patch.go).
		d.patchInsert(e)
	} else {
		d.touchStructure()
	}
	return e, nil
}

// DeleteLeaf removes a leaf entry. LDAP allows only leaves to be deleted
// (Section 4.1); deleting an entry with children is an error.
func (d *Directory) DeleteLeaf(e *Entry) error {
	if e.dir != d {
		return fmt.Errorf("dirtree: entry %s belongs to a different directory", e.DN())
	}
	if !e.IsLeaf() {
		return fmt.Errorf("dirtree: entry %s has %d children; only leaves may be deleted", e.DN(), len(e.children))
	}
	if d.patchable() {
		d.patchDelete(e) // before detach: uses the entry's current interval
	} else {
		d.touchStructure()
	}
	d.detach(e)
	delete(d.byID, e.id)
	delete(d.byDN, e.DN())
	e.dir = nil
	return nil
}

// DeleteSubtree removes the entry and its whole subtree, the Δ-deletion
// granularity of Section 4.1. It returns the number of entries removed.
func (d *Directory) DeleteSubtree(root *Entry) (int, error) {
	if root.dir != d {
		return 0, fmt.Errorf("dirtree: entry %s belongs to a different directory", root.DN())
	}
	n := 0
	var drop func(e *Entry)
	drop = func(e *Entry) {
		for _, c := range e.children {
			drop(c)
		}
		delete(d.byID, e.id)
		delete(d.byDN, e.DN())
		e.dir = nil
		n++
	}
	if d.patchable() {
		d.patchDelete(root) // before detach: uses the subtree's current interval
	} else {
		d.touchStructure()
	}
	d.detach(root)
	drop(root)
	return n, nil
}

func (d *Directory) detach(e *Entry) {
	if e.parent == nil {
		for i, r := range d.roots {
			if r == e {
				d.roots = append(d.roots[:i:i], d.roots[i+1:]...)
				return
			}
		}
		return
	}
	sib := e.parent.children
	for i, c := range sib {
		if c == e {
			e.parent.children = append(sib[:i:i], sib[i+1:]...)
			return
		}
	}
}

// GraftSubtree copies the subtree rooted at src (from any directory) as a
// new last child of parent in d (or as a new last root if parent is nil),
// returning the root of the copy. It is the Δ-insertion primitive of
// Section 4.1.
func (d *Directory) GraftSubtree(parent *Entry, src *Entry) (*Entry, error) {
	return d.GraftSubtreeAt(parent, src, -1)
}

// GraftSubtreeAt is GraftSubtree placing the copy at sibling position i
// among parent's children (or among the roots), shifting later siblings
// right; i < 0 or past the end appends. Rolling a deletion back grafts
// the saved subtree at the position it was deleted from, so the restored
// instance is the original one, sibling order included.
func (d *Directory) GraftSubtreeAt(parent *Entry, src *Entry, i int) (*Entry, error) {
	if parent != nil && parent.dir != d {
		return nil, fmt.Errorf("dirtree: parent %s belongs to a different directory", parent.DN())
	}
	var copyRec func(p *Entry, s *Entry) (*Entry, error)
	copyRec = func(p *Entry, s *Entry) (*Entry, error) {
		e, err := d.add(p, s.rdn, s.Classes())
		if err != nil {
			return nil, err
		}
		for name, vs := range s.attrs {
			e.attrs = ensureAttrs(e.attrs)
			e.attrs[name] = append([]Value(nil), vs...)
		}
		for _, c := range s.children {
			if _, err := copyRec(e, c); err != nil {
				return nil, err
			}
		}
		return e, nil
	}
	// Patch the encoding once for the whole subtree, not per entry: the
	// grafting flag makes each add bump the epoch instead (O(1)), and a
	// successful graft splices the finished subtree in and restores
	// currency. A failed partial graft leaves the epoch bumped, so the
	// fallback recompute cleans up.
	patch := d.patchable()
	d.grafting = true
	root, err := copyRec(parent, src)
	d.grafting = false
	if err != nil {
		return nil, err
	}
	sibs := &d.roots
	if parent != nil {
		sibs = &parent.children
	}
	if last := len(*sibs) - 1; i >= 0 && i < last {
		copy((*sibs)[i+1:], (*sibs)[i:last])
		(*sibs)[i] = root
	}
	if patch {
		d.patchInsert(root)
		d.encodedEpoch = d.epoch
	} else {
		d.touchStructure()
	}
	return root, nil
}

func ensureAttrs(m map[string][]Value) map[string][]Value {
	if m == nil {
		return make(map[string][]Value)
	}
	return m
}

// EnsureEncoded (re)computes the interval encoding and the per-class
// posting lists if any mutation happened since the last encoding. It is an
// O(|D|) pre-order walk; all query evaluation goes through it.
func (d *Directory) EnsureEncoded() {
	if d.encodedEpoch == d.epoch {
		return
	}
	// Arbitrary unpatched mutations may have happened; drop the value
	// indexes and let the next probe rebuild them (attrindex.go).
	d.attrTrees = nil
	d.attrStale = false
	d.order = d.order[:0]
	if cap(d.order) < len(d.byID) {
		d.order = make([]*Entry, 0, len(d.byID))
	}
	d.classIndex = make(map[string][]*Entry)
	pre := 0
	var walk func(e *Entry, depth int)
	walk = func(e *Entry, depth int) {
		e.pre = pre
		e.depth = depth
		pre++
		d.order = append(d.order, e)
		for c := range e.classes {
			d.classIndex[c] = append(d.classIndex[c], e)
		}
		for _, c := range e.children {
			walk(c, depth+1)
		}
		e.post = pre - 1
	}
	for _, r := range d.roots {
		walk(r, 0)
	}
	// Posting lists were appended during a pre-order walk, so they are
	// already sorted by pre-order rank; no per-class sort is needed.
	d.encodedEpoch = d.epoch
}

// Encoded reports whether the interval encoding is current, i.e. no
// mutation happened since the last EnsureEncoded. While Encoded is true,
// every read path (Entries, ClassEntries, views, queries) is free of
// internal mutation and therefore safe for concurrent use from multiple
// goroutines; any mutation invalidates that guarantee until EnsureEncoded
// runs again, single-threaded.
func (d *Directory) Encoded() bool { return d.encodedEpoch == d.epoch }

// Entries returns all entries in pre-order. The returned slice is owned by
// the directory and is valid until the next mutation.
func (d *Directory) Entries() []*Entry {
	d.EnsureEncoded()
	return d.order
}

// ClassEntries returns the entries belonging to object class c, sorted by
// pre-order. The returned slice is owned by the directory.
func (d *Directory) ClassEntries(c string) []*Entry {
	d.EnsureEncoded()
	return d.classIndex[c]
}

// ClassCount returns the number of entries that belong to object class c.
func (d *Directory) ClassCount(c string) int {
	d.EnsureEncoded()
	return len(d.classIndex[c])
}

// ClassNames returns every object class that occurs in the instance,
// sorted.
func (d *Directory) ClassNames() []string {
	d.EnsureEncoded()
	out := make([]string, 0, len(d.classIndex))
	for c := range d.classIndex {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the directory sharing the (immutable)
// registry. Entry IDs are not preserved; DNs are.
func (d *Directory) Clone() *Directory {
	out := New(d.reg)
	var copyRec func(parent *Entry, src *Entry)
	copyRec = func(parent *Entry, src *Entry) {
		e, err := out.add(parent, src.rdn, src.Classes())
		if err != nil {
			// Cannot happen: the source directory has unique DNs.
			panic(err)
		}
		for name, vs := range src.attrs {
			e.attrs = ensureAttrs(e.attrs)
			e.attrs[name] = append([]Value(nil), vs...)
		}
		for _, c := range src.children {
			copyRec(e, c)
		}
	}
	for _, r := range d.roots {
		copyRec(nil, r)
	}
	return out
}

// CheckTyping verifies condition 3(a) of Definition 2.1 (every value lies
// in the domain of its attribute's type) and, when the registry declares
// single-valued attributes, that no such attribute carries more than one
// value. It returns one error per offending (entry, attribute).
func (d *Directory) CheckTyping() []error {
	var errs []error
	for _, e := range d.Entries() {
		for name, vs := range e.attrs {
			for _, v := range vs {
				if err := d.reg.CheckValue(name, v); err != nil {
					errs = append(errs, fmt.Errorf("%s: %v", e.DN(), err))
					break
				}
			}
			if d.reg.SingleValued(name) && len(vs) > 1 {
				errs = append(errs, fmt.Errorf("%s: attribute %s is single-valued but has %d values", e.DN(), name, len(vs)))
			}
		}
	}
	return errs
}

// String renders the forest as an indented outline, for diagnostics and
// golden tests.
func (d *Directory) String() string {
	var b strings.Builder
	var walk func(e *Entry, depth int)
	walk = func(e *Entry, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(e.rdn)
		b.WriteString(" (")
		b.WriteString(strings.Join(e.Classes(), ","))
		b.WriteString(")\n")
		for _, c := range e.children {
			walk(c, depth+1)
		}
	}
	for _, r := range d.roots {
		walk(r, 0)
	}
	return b.String()
}
