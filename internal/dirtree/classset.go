package dirtree

import (
	"encoding/binary"
	"slices"
)

// ClassSet is an interned object-class set: the sorted, duplicate-free
// class names that one or more live entries of a Directory carry. Every
// entry points at the one ClassSet of its directory that holds exactly
// its classes, so entries with equal class sets share a pointer, and
// anything that depends on the class set alone — the class-schema
// conditions of Definition 2.3, ρr and ρa of Definition 2.2 — can be
// decided once per set instead of once per entry.
//
// A ClassSet is immutable; its fields must not be modified.
type ClassSet struct {
	// ID is the set's slot in its directory's table (Directory.ClassSets).
	// IDs are dense; a slot freed when its last entry leaves is reused.
	ID int
	// Names are the classes, sorted and distinct.
	Names []string

	key    string  // length-prefixed Names: the table key
	values []Value // Names as string values: the objectClass attribute
	refs   int     // live entries holding the set (owning directory's mutations only)
}

// smallClassSet lays out a set of up to four classes, the common case,
// in one allocation.
type smallClassSet struct {
	ClassSet
	names  [4]string
	values [4]Value
}

// newClassSet returns an unregistered set holding the sorted, distinct
// names under key.
func newClassSet(names []string, key []byte) *ClassSet {
	var s *ClassSet
	if n := len(names); n <= 4 {
		b := &smallClassSet{}
		s = &b.ClassSet
		s.Names, s.values = b.names[:n:n], b.values[:n:n]
	} else {
		s = &ClassSet{Names: make([]string, n), values: make([]Value, n)}
	}
	copy(s.Names, names)
	for i, n := range names {
		s.values[i] = String(n)
	}
	s.key = string(key)
	return s
}

// Key returns an encoding of the names that identifies the set in every
// directory (unlike ID, which is per directory): two sets have equal
// keys iff they have equal names.
func (s *ClassSet) Key() string { return s.key }

// Has reports whether class c is in the set: a scan of the few sorted
// names, stopping at the first name past c.
func (s *ClassSet) Has(c string) bool {
	for _, n := range s.Names {
		if n >= c {
			return n == c
		}
	}
	return false
}

// appendClassKey appends the key of the sorted, distinct names to dst.
// Each name is length-prefixed, so no choice of names can make two
// different sets collide.
func appendClassKey(dst []byte, names []string) []byte {
	for _, n := range names {
		dst = binary.AppendUvarint(dst, uint64(len(n)))
		dst = append(dst, n...)
	}
	return dst
}

// classTable interns the class sets of a directory's live entries. It
// is refcounted, so it holds exactly the distinct sets that live
// entries carry: a refused insert of entries with novel classes leaves
// nothing behind once the entries are deleted again.
type classTable struct {
	sets   []*ClassSet // by ID; nil marks a free slot
	inline [4]*ClassSet
	byKey  map[string]*ClassSet // built once sets outgrows inline
	free   []int                // freed IDs, reused last-in first-out
}

// A directory's first few sets live in the table's inline array and are
// found by a scan: the small directory a transaction builds for each
// inserted fragment then interns its sets without allocating a map or a
// slice.
func (t *classTable) init() { t.sets = t.inline[:0] }

func (t *classTable) lookup(key []byte) *ClassSet {
	if t.byKey != nil {
		return t.byKey[string(key)]
	}
	for _, s := range t.sets {
		if s != nil && s.key == string(key) {
			return s
		}
	}
	return nil
}

// intern takes a reference on the set holding exactly names and returns
// it, creating it if no live entry holds it yet. names may be in any
// order and hold duplicates; intern sorts and compacts it in place.
func (t *classTable) intern(names []string) *ClassSet {
	slices.Sort(names)
	names = slices.Compact(names)
	var keyBuf [128]byte
	key := appendClassKey(keyBuf[:0], names)
	if s := t.lookup(key); s != nil {
		s.refs++
		return s
	}
	s := newClassSet(names, key)
	s.refs = 1
	if n := len(t.free); n > 0 {
		s.ID = t.free[n-1]
		t.free = t.free[:n-1]
		t.sets[s.ID] = s
	} else {
		s.ID = len(t.sets)
		t.sets = append(t.sets, s)
	}
	switch {
	case t.byKey != nil:
		t.byKey[s.key] = s
	case len(t.sets) > len(t.inline):
		t.byKey = make(map[string]*ClassSet, len(t.sets))
		for _, x := range t.sets {
			if x != nil {
				t.byKey[x.key] = x
			}
		}
	}
	return s
}

// release drops one reference on s, freeing its slot with the last.
func (t *classTable) release(s *ClassSet) {
	if s.refs--; s.refs > 0 {
		return
	}
	delete(t.byKey, s.key)
	t.sets[s.ID] = nil
	t.free = append(t.free, s.ID)
}

// ClassSets returns the directory's interned class sets indexed by ID:
// exactly the distinct class sets of its live entries, with nil at the
// IDs no live entry holds. The slice is owned by the directory and is
// valid until the next mutation.
func (d *Directory) ClassSets() []*ClassSet { return d.classes.sets }

// setClasses moves e to the set holding exactly names (sorted and
// compacted in place), keeping the posting lists in step with the
// membership change: one splice per class entering or leaving.
func (e *Entry) setClasses(names []string) {
	d := e.dir
	old := e.cls
	e.cls = d.classes.intern(names)
	d.classes.release(old)
	if e.cls == old || !d.patchable() {
		return
	}
	// Merge the two sorted name lists; postings only change for names
	// in one of them.
	o, n := old.Names, e.cls.Names
	for len(o) > 0 || len(n) > 0 {
		switch {
		case len(n) == 0 || len(o) > 0 && o[0] < n[0]:
			d.removePosting(o[0], e)
			o = o[1:]
		case len(o) == 0 || n[0] < o[0]:
			d.insertPosting(n[0], e)
			n = n[1:]
		default:
			o, n = o[1:], n[1:]
		}
	}
}
