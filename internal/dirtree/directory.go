package dirtree

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Directory is a directory instance D = (R, class, val, N): a finite forest
// of entries (Definition 2.1). It keeps a pre/post-order interval encoding
// of the forest and per-class posting lists sorted by pre-order — the
// "sorted directory entries" that the hierarchical query evaluation of
// Section 3.2 relies on for its O(|Q|·|D|) bound.
//
// A directory has two states. It is building from New until the first
// EnsureEncoded or ranked read (Entries, ClassEntries, views, value
// probes): adds cost O(1) and nothing is ranked. That first call seals it
// with one O(|D|) pre-order walk, and from then on every mutation patches
// the encoding in place (patch.go), so it is never stale again.
//
// A Directory is not safe for concurrent mutation. Concurrent read-only
// use is safe once it is sealed: a sealed directory's reads write
// nothing. Seal a building directory once, single-threaded, before
// fanning reads out.
type Directory struct {
	reg     *Registry
	roots   []*Entry
	byDN    map[string]*Entry
	nextID  int
	classes classTable // the live entries' interned class sets

	sealed     bool
	order      []*Entry            // all entries in pre-order, once sealed
	classIndex map[string][]*Entry // per-class posting lists, pre-order, once sealed
	grafting   bool                // GraftSubtree is assembling a subtree (patch once at the end)

	// Attribute-value secondary indexes (attrindex.go), built lazily per
	// attribute once sealed and patched alongside the encoding. attrMu
	// serializes the lazy builds that happen on read-only probe paths.
	attrMu    sync.Mutex
	attrTrees map[string]*bptree
}

// New returns an empty directory using reg for attribute typing. A nil reg
// leaves all attributes string-typed and multi-valued.
func New(reg *Registry) *Directory {
	d := &Directory{reg: reg, byDN: make(map[string]*Entry)}
	d.classes.init()
	return d
}

// Registry returns the attribute registry the directory was created with;
// it may be nil.
func (d *Directory) Registry() *Registry { return d.reg }

// Len returns |D|, the number of entries.
func (d *Directory) Len() int { return len(d.byDN) }

// Roots returns the forest roots. The slice is owned by the directory.
func (d *Directory) Roots() []*Entry { return d.roots }

// ByDN returns the entry with the given distinguished name, or nil.
func (d *Directory) ByDN(dn string) *Entry { return d.byDN[dn] }

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
		dir:    d,
		id:     d.nextID,
		rdn:    rdn,
		parent: parent,
	}
	dn := e.DN()
	if d.byDN[dn] != nil {
		return nil, fmt.Errorf("dirtree: entry %s already exists", dn)
	}
	d.nextID++
	var buf [16]string
	e.cls = d.classes.intern(append(buf[:0], classes...))
	if parent == nil {
		d.roots = append(d.roots, e)
	} else {
		parent.children = append(parent.children, e)
	}
	d.byDN[dn] = e
	if d.patchable() {
		// The new entry is the last child (or last root): splice it into
		// the encoding (patch.go).
		d.patchInsert(e)
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
	}
	d.detach(e)
	delete(d.byDN, e.DN())
	d.classes.release(e.cls)
	e.dir = nil
	return nil
}

// DeleteSubtree removes the entry and its whole subtree, the Δ-deletion
// granularity of Section 4.1. It returns the number of entries removed.
// The detached entries keep their RDNs, classes, values and children, so
// GraftSubtreeAt can copy the subtree back.
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
		delete(d.byDN, e.DN())
		d.classes.release(e.cls)
		e.dir = nil
		n++
	}
	if d.patchable() {
		d.patchDelete(root) // before detach: uses the subtree's current interval
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
// the detached subtree at the position it was deleted from, so the
// restored instance is the original one, sibling order included.
func (d *Directory) GraftSubtreeAt(parent *Entry, src *Entry, i int) (*Entry, error) {
	if parent != nil && parent.dir != d {
		return nil, fmt.Errorf("dirtree: parent %s belongs to a different directory", parent.DN())
	}
	// copyRec returns the copy of s, even when copying below it failed.
	var copyRec func(p *Entry, s *Entry) (*Entry, error)
	copyRec = func(p *Entry, s *Entry) (*Entry, error) {
		e, err := d.add(p, s.rdn, s.cls.Names)
		if err != nil {
			return nil, err
		}
		if len(s.attrs) > 0 {
			e.attrs = make(map[string][]Value, len(s.attrs))
		}
		for name, vs := range s.attrs {
			e.attrs[name] = append([]Value(nil), vs...)
		}
		for _, c := range s.children {
			if _, err := copyRec(e, c); err != nil {
				return e, err
			}
		}
		return e, nil
	}
	// Patch the encoding once for the whole subtree, not per entry: while
	// grafting is set, adds only link. A copy that fails below its root
	// (a source with duplicate sibling RDNs) is unlinked again while
	// grafting still holds, so the encoding, which never saw it, stays
	// current and d is left as it was.
	d.grafting = true
	root, err := copyRec(parent, src)
	if err != nil && root != nil {
		_, _ = d.DeleteSubtree(root) // cannot fail: root is d's
	}
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
	if d.sealed {
		d.patchInsert(root)
	}
	return root, nil
}

// EnsureEncoded seals a building directory: one O(|D|) pre-order walk
// computes the interval encoding and the per-class posting lists. On a
// sealed directory it does nothing, because every mutation there patches
// the encoding in place. All query evaluation goes through it.
func (d *Directory) EnsureEncoded() {
	if d.sealed {
		return
	}
	d.order = make([]*Entry, 0, len(d.byDN))
	d.classIndex = make(map[string][]*Entry)
	pre := 0
	var walk func(e *Entry, depth int)
	walk = func(e *Entry, depth int) {
		e.pre = pre
		e.depth = depth
		pre++
		d.order = append(d.order, e)
		for _, c := range e.cls.Names {
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
	d.sealed = true
}

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
	for _, r := range d.roots {
		if _, err := out.GraftSubtree(nil, r); err != nil {
			// Cannot happen: the source directory has unique DNs.
			panic(err)
		}
	}
	return out
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
		b.WriteString(strings.Join(e.cls.Names, ","))
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
