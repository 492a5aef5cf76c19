package core

import (
	"fmt"
	"sort"
)

// ClassSchema is the class schema H = (Cc, E, Aux) of Definition 2.3: a
// single-inheritance tree of core ("structural") object classes rooted at
// top, a set of auxiliary object classes, and a function Aux associating
// with each core class the auxiliary classes its entries may additionally
// belong to.
//
// The hierarchy induces the co-occurrence schema elements of Definition
// 2.6: ci ⇒ cj (Subclass) when cj is an ancestor of ci in the tree, and
// ci ⊗ cj (Disjoint) when ci and cj are incomparable core classes.
type ClassSchema struct {
	parent map[string]string              // core class -> its superclass; top -> ""
	kids   map[string][]string            // inverse of parent, sorted lazily
	aux    map[string]struct{}            // declared auxiliary classes
	auxOf  map[string]map[string]struct{} // Aux: core -> allowed auxiliaries
	depth  map[string]int                 // memoized tree depth
}

// newClassSchema returns a class schema containing only the root class
// top.
func newClassSchema() *ClassSchema {
	return &ClassSchema{
		parent: map[string]string{ClassTop: ""},
		kids:   make(map[string][]string),
		aux:    make(map[string]struct{}),
		auxOf:  make(map[string]map[string]struct{}),
		depth:  map[string]int{ClassTop: 0},
	}
}

// AddCore declares a new core class c with the given superclass, which
// must already be a core class. Declaring top or re-declaring an existing
// class is an error.
func (s *ClassSchema) AddCore(c, superclass string) error {
	if c == ClassTop {
		return fmt.Errorf("core: class %s is predeclared as the hierarchy root", ClassTop)
	}
	if c == classNone || superclass == classNone {
		return fmt.Errorf("core: class name %s is reserved", classNone)
	}
	if _, dup := s.parent[c]; dup {
		return fmt.Errorf("core: core class %s already declared", c)
	}
	if _, dup := s.aux[c]; dup {
		return fmt.Errorf("core: %s already declared as an auxiliary class", c)
	}
	if _, ok := s.parent[superclass]; !ok {
		return fmt.Errorf("core: superclass %s of %s is not a declared core class", superclass, c)
	}
	s.parent[c] = superclass
	s.kids[superclass] = append(s.kids[superclass], c)
	s.depth[c] = s.depth[superclass] + 1
	return nil
}

// AddAux declares a new auxiliary class.
func (s *ClassSchema) AddAux(c string) error {
	if c == classNone {
		return fmt.Errorf("core: class name %s is reserved", classNone)
	}
	if _, dup := s.parent[c]; dup {
		return fmt.Errorf("core: %s already declared as a core class", c)
	}
	if _, dup := s.aux[c]; dup {
		return fmt.Errorf("core: auxiliary class %s already declared", c)
	}
	s.aux[c] = struct{}{}
	return nil
}

// AllowAux records auxes ∈ Aux(core): entries of the core class may
// additionally belong to these auxiliary classes.
func (s *ClassSchema) AllowAux(core string, auxes ...string) error {
	if !s.IsCore(core) {
		return fmt.Errorf("core: %s is not a declared core class", core)
	}
	for _, x := range auxes {
		if !s.IsAux(x) {
			return fmt.Errorf("core: %s is not a declared auxiliary class", x)
		}
		set := s.auxOf[core]
		if set == nil {
			set = make(map[string]struct{})
			s.auxOf[core] = set
		}
		set[x] = struct{}{}
	}
	return nil
}

// IsCore reports whether c is a declared core class.
func (s *ClassSchema) IsCore(c string) bool {
	_, ok := s.parent[c]
	return ok
}

// IsAux reports whether c is a declared auxiliary class.
func (s *ClassSchema) IsAux(c string) bool {
	_, ok := s.aux[c]
	return ok
}

// Declared reports whether c is declared at all (the "only object classes
// mentioned in the schema" condition of Definition 2.7).
func (s *ClassSchema) Declared(c string) bool { return s.IsCore(c) || s.IsAux(c) }

// Superclass returns the parent of core class c in the hierarchy, and
// false for top or undeclared classes.
func (s *ClassSchema) Superclass(c string) (string, bool) {
	p, ok := s.parent[c]
	if !ok || p == "" {
		return "", false
	}
	return p, true
}

// Superclasses returns the chain from c (inclusive) up to top, for a core
// class c; nil otherwise.
func (s *ClassSchema) Superclasses(c string) []string {
	if !s.IsCore(c) {
		return nil
	}
	var out []string
	for cur := c; ; {
		out = append(out, cur)
		p, ok := s.Superclass(cur)
		if !ok {
			return out
		}
		cur = p
	}
}

// Subclasses returns the immediate subclasses of core class c, sorted.
func (s *ClassSchema) Subclasses(c string) []string {
	out := append([]string(nil), s.kids[c]...)
	sort.Strings(out)
	return out
}

// Subsumes reports the co-occurrence element sub ⇒ super: whether super
// lies on sub's superclass chain (reflexively). It is false unless both
// are core classes.
func (s *ClassSchema) Subsumes(sub, super string) bool {
	if !s.IsCore(sub) || !s.IsCore(super) {
		return false
	}
	for cur := sub; ; {
		if cur == super {
			return true
		}
		p, ok := s.Superclass(cur)
		if !ok {
			return false
		}
		cur = p
	}
}

// Comparable reports whether one of the two core classes subsumes the
// other. Incomparable core classes are disjoint (ci ⊗ cj) under single
// inheritance.
func (s *ClassSchema) Comparable(c1, c2 string) bool {
	return s.Subsumes(c1, c2) || s.Subsumes(c2, c1)
}

// Disjoint reports the forbidden co-occurrence element c1 ⊗ c2: both are
// core classes and neither subsumes the other.
func (s *ClassSchema) Disjoint(c1, c2 string) bool {
	return s.IsCore(c1) && s.IsCore(c2) && !s.Comparable(c1, c2)
}

// AuxAllowed reports whether aux ∈ Aux(core).
func (s *ClassSchema) AuxAllowed(core, aux string) bool {
	_, ok := s.auxOf[core][aux]
	return ok
}

// AuxesOf returns Aux(core), sorted.
func (s *ClassSchema) AuxesOf(core string) []string { return sortedKeys(s.auxOf[core]) }

// MaxAux returns max over core classes of |Aux(c)|, used in the
// complexity accounting of Theorem 3.1.
func (s *ClassSchema) MaxAux() int {
	m := 0
	for _, set := range s.auxOf {
		if len(set) > m {
			m = len(set)
		}
	}
	return m
}

// Depth returns the depth of the core class hierarchy (top has depth 0).
func (s *ClassSchema) Depth() int {
	m := 0
	for _, d := range s.depth {
		if d > m {
			m = d
		}
	}
	return m
}

// DepthOf returns the depth of core class c in the hierarchy, or -1 if
// undeclared.
func (s *ClassSchema) DepthOf(c string) int {
	d, ok := s.depth[c]
	if !ok {
		return -1
	}
	return d
}

// CoreClasses returns Cc, sorted.
func (s *ClassSchema) CoreClasses() []string {
	out := make([]string, 0, len(s.parent))
	for c := range s.parent {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// AuxClasses returns Cx, sorted.
func (s *ClassSchema) AuxClasses() []string { return sortedKeys(s.aux) }

// Clone returns an independent deep copy.
func (s *ClassSchema) Clone() *ClassSchema {
	out := newClassSchema()
	// Re-add cores in depth order so superclasses exist first.
	cores := s.CoreClasses()
	sort.Slice(cores, func(i, j int) bool { return s.depth[cores[i]] < s.depth[cores[j]] })
	for _, c := range cores {
		if c == ClassTop {
			continue
		}
		if err := out.AddCore(c, s.parent[c]); err != nil {
			panic(err) // cannot happen: source schema is well-formed
		}
	}
	for x := range s.aux {
		if err := out.AddAux(x); err != nil {
			panic(err)
		}
	}
	for c, set := range s.auxOf {
		for x := range set {
			if err := out.AllowAux(c, x); err != nil {
				panic(err)
			}
		}
	}
	return out
}
