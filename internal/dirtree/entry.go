package dirtree

import (
	"fmt"
	"slices"
	"strings"
)

// AttrObjectClass is the special attribute whose values are, by condition
// 3(b) of Definition 2.1, exactly the object classes the entry belongs to.
const AttrObjectClass = "objectClass"

// Entry is a directory entry: a node of the forest holding a finite,
// non-empty set of object classes and a finite set of (attribute, value)
// pairs (Definition 2.1). Entries are created and mutated only through
// their owning Directory.
type Entry struct {
	dir      *Directory
	id       int
	rdn      string // relative distinguished name, e.g. "uid=laks"
	parent   *Entry // nil for roots
	children []*Entry

	cls   *ClassSet // interned in dir's class table
	attrs map[string][]Value

	// Interval encoding, valid once dir is sealed.
	pre, post, depth int
}

// ID returns the entry's directory-unique identifier. IDs are stable across
// structural mutations and are never reused within one Directory.
func (e *Entry) ID() int { return e.id }

// RDN returns the entry's relative distinguished name.
func (e *Entry) RDN() string { return e.rdn }

// DN returns the entry's distinguished name: its RDN followed by the DNs of
// its ancestors, leaf-first, comma-separated, in the LDAP convention
// ("uid=laks,ou=databases,ou=attLabs,o=att"). A root's DN is its RDN and
// costs no allocation; any other DN is built in exactly one.
func (e *Entry) DN() string {
	if e.parent == nil {
		return e.rdn
	}
	size := len(e.rdn)
	for n := e.parent; n != nil; n = n.parent {
		size += 1 + len(n.rdn)
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(e.rdn)
	for n := e.parent; n != nil; n = n.parent {
		b.WriteByte(',')
		b.WriteString(n.rdn)
	}
	return b.String()
}

// Parent returns the entry's parent, or nil if the entry is a forest root.
func (e *Entry) Parent() *Entry { return e.parent }

// Children returns the entry's children. The returned slice is owned by the
// directory and must not be modified.
func (e *Entry) Children() []*Entry { return e.children }

// IsLeaf reports whether the entry has no children.
func (e *Entry) IsLeaf() bool { return len(e.children) == 0 }

// Directory returns the directory that owns this entry.
func (e *Entry) Directory() *Directory { return e.dir }

// HasClass reports whether the entry belongs to object class c.
func (e *Entry) HasClass(c string) bool { return e.cls.Has(c) }

// ClassSet returns the entry's interned class set, shared with every
// entry of the directory that has the same classes. It is immutable.
func (e *Entry) ClassSet() *ClassSet { return e.cls }

// Classes returns the entry's object classes in sorted order, in a
// slice the caller owns.
func (e *Entry) Classes() []string {
	return e.AppendClasses(make([]string, 0, len(e.cls.Names)))
}

// AppendClasses appends the entry's object classes, sorted, to dst and
// returns the extended slice.
func (e *Entry) AppendClasses(dst []string) []string { return append(dst, e.cls.Names...) }

// NumClasses returns |class(e)|.
func (e *Entry) NumClasses() int { return len(e.cls.Names) }

// AddClass adds object class c to the entry. Adding a class the entry
// already belongs to is a no-op.
func (e *Entry) AddClass(c string) {
	if e.HasClass(c) {
		return
	}
	var buf [16]string
	e.setClasses(append(append(buf[:0], e.cls.Names...), c))
}

// RemoveClass removes object class c from the entry if present.
func (e *Entry) RemoveClass(c string) {
	if !e.HasClass(c) {
		return
	}
	var buf [16]string
	names := buf[:0]
	for _, n := range e.cls.Names {
		if n != c {
			names = append(names, n)
		}
	}
	e.setClasses(names)
}

// Attr returns the values of the named attribute. For objectClass it
// returns the class set as string values, maintaining condition 3(b) of
// Definition 2.1. The returned slice must not be modified.
func (e *Entry) Attr(name string) []Value {
	if name == AttrObjectClass {
		return e.cls.values
	}
	return e.attrs[name]
}

// HasAttr reports whether the entry has at least one value for the named
// attribute.
func (e *Entry) HasAttr(name string) bool {
	if name == AttrObjectClass {
		return len(e.cls.Names) > 0
	}
	return len(e.attrs[name]) > 0
}

// AttrNames returns the names of the entry's attributes (objectClass
// included when the entry has classes), sorted.
func (e *Entry) AttrNames() []string {
	return e.AppendAttrNames(make([]string, 0, len(e.attrs)+1))
}

// AppendAttrNames is AttrNames into the caller's buffer: the names are
// appended to dst, sorted, and the extended slice returned.
func (e *Entry) AppendAttrNames(dst []string) []string {
	n := len(dst)
	for a := range e.attrs {
		dst = append(dst, a)
	}
	if len(e.cls.Names) > 0 {
		dst = append(dst, AttrObjectClass)
	}
	slices.Sort(dst[n:])
	return dst
}

// NumPairs returns |val(e)|, the number of (attribute, value) pairs held by
// the entry, counting the implicit objectClass pairs.
func (e *Entry) NumPairs() int {
	n := len(e.cls.Names)
	for _, vs := range e.attrs {
		n += len(vs)
	}
	return n
}

// AddValue appends a value to the named attribute. Adding to objectClass is
// equivalent to AddClass with the value's text. Duplicate values are
// ignored, keeping val(e) a set.
//
// The interval encoding depends only on structure and class membership, so
// value-only mutations leave it current.
func (e *Entry) AddValue(name string, v Value) {
	if name == AttrObjectClass {
		e.AddClass(v.String())
		return
	}
	for _, have := range e.attrs[name] {
		if have.Equal(v) {
			return
		}
	}
	if e.attrs == nil {
		e.attrs = make(map[string][]Value)
	}
	e.attrs[name] = append(e.attrs[name], v)
	e.dir.noteValueAdded(e, name, v)
}

// SetValues replaces all values of the named attribute. An empty values
// slice removes the attribute.
func (e *Entry) SetValues(name string, values ...Value) {
	if name == AttrObjectClass {
		var buf [16]string
		names := buf[:0]
		for _, v := range values {
			names = append(names, v.String())
		}
		e.setClasses(names)
		return
	}
	old := e.attrs[name]
	if len(values) == 0 {
		delete(e.attrs, name)
	} else {
		if e.attrs == nil {
			e.attrs = make(map[string][]Value)
		}
		e.attrs[name] = append([]Value(nil), values...)
	}
	e.dir.noteValuesReplaced(e, name, old)
}

// RemoveValue removes one value from the named attribute if present.
func (e *Entry) RemoveValue(name string, v Value) {
	if name == AttrObjectClass {
		e.RemoveClass(v.String())
		return
	}
	vs := e.attrs[name]
	for i, have := range vs {
		if have.Equal(v) {
			e.attrs[name] = append(vs[:i:i], vs[i+1:]...)
			if len(e.attrs[name]) == 0 {
				delete(e.attrs, name)
			}
			e.dir.noteValueRemoved(e, name, v)
			return
		}
	}
}

// Pre returns the entry's pre-order label in the encoding: labels
// increase along the pre-order but are gapped, so only their order is
// meaningful, and an insertion may relabel other entries. The owning
// directory must be sealed (Directory.EnsureEncoded).
func (e *Entry) Pre() int { return e.pre }

// Post returns the largest pre-order label in the entry's subtree, so
// that d is a descendant-or-self of e iff e.pre <= d.pre <= e.post.
func (e *Entry) Post() int { return e.post }

// Depth returns the entry's depth (roots have depth 0) in the current
// encoding.
func (e *Entry) Depth() int { return e.depth }

// IsAncestorOf reports whether e is a proper ancestor of d. Both entries
// must belong to the same directory, which must be sealed.
func (e *Entry) IsAncestorOf(d *Entry) bool {
	return e != d && e.pre <= d.pre && d.pre <= e.post
}

// String renders the entry as "dn (class,class,...)" for diagnostics.
func (e *Entry) String() string {
	return fmt.Sprintf("%s (%s)", e.DN(), strings.Join(e.cls.Names, ","))
}
