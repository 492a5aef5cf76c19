package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"boundschema/internal/dirtree"
)

// Checker tests legality of directory instances against one schema
// (Section 3). Its only state besides the schema is a cache of the
// content decisions for legal class sets, so the schema must not change
// once the checker is in use; it is safe for concurrent use.
type Checker struct {
	schema *Schema
	// MaxWitnesses caps the number of violations reported per schema
	// element / per entry condition; 0 means unlimited. Legality verdicts
	// are unaffected — only report size.
	MaxWitnesses int
	// Concurrency is the worker pool's width: the per-entry content and
	// key checks split into chunks and the per-element structure queries
	// run as jobs on that many workers, and 0 (the default) picks
	// GOMAXPROCS workers automatically for instances large enough to
	// amortize the fan-out (see autoParallelMin). Reports are
	// byte-identical at every width; see parallel.go for the merge
	// contract.
	Concurrency int
	// OnTiming, when non-nil, is called after every top-level Check (and
	// so every Legal) with the execution profile — the worker count the
	// Concurrency knob resolved to and the wall time. It must be safe for
	// concurrent use; the server's metrics layer hooks in here.
	OnTiming func(CheckTiming)

	cache memoCache // content decisions of legal class sets (memoFor)
}

// CheckTiming describes one top-level Check invocation.
type CheckTiming struct {
	Workers  int           // resolved worker count
	Entries  int           // instance size at check time
	Legal    bool          // the verdict
	Duration time.Duration // wall time of the whole check
}

// NewChecker returns a checker for the schema.
func NewChecker(s *Schema) *Checker { return &Checker{schema: s} }

// Schema returns the schema being checked against.
func (c *Checker) Schema() *Schema { return c.schema }

// Check tests full legality (Definition 2.7): content schema entry by
// entry, then structure schema via the Figure 4 query reduction. The
// returned report is never nil.
func (c *Checker) Check(d *dirtree.Directory) *Report {
	start := time.Now()
	n := d.Len()
	w := c.workersFor(n)
	r := c.checkContent(d, w)
	r.Merge(c.checkKeys(d, w))
	r.Merge(c.checkStructure(d, w))
	if c.OnTiming != nil {
		c.OnTiming(CheckTiming{Workers: w, Entries: n, Legal: r.Legal(), Duration: time.Since(start)})
	}
	return r
}

// Legal reports whether d is legal w.r.t. the schema: the verdict of
// Check.
func (c *Checker) Legal(d *dirtree.Directory) bool { return c.Check(d).Legal() }

// ---------------------------------------------------------------------
// Content schema (Section 3.1): per-entry checks.

// CheckContent tests every entry against the attribute and class schemas.
func (c *Checker) CheckContent(d *dirtree.Directory) *Report {
	return c.checkContent(d, c.workersFor(d.Len()))
}

// CheckEntry tests a single entry against the content schema, the unit of
// the O(|class(e)| + maxAux·depth(H) + |val(e)| + Σ|ρa(c)|) bound of
// Section 3.1.
func (c *Checker) CheckEntry(e *dirtree.Entry) *Report {
	r := &Report{}
	c.checkEntry(c.memoFor(e.ClassSet()), e, r)
	return r
}

// EntryLegal reports whether the entry satisfies the content schema.
func (c *Checker) EntryLegal(e *dirtree.Entry) bool {
	r := &Report{}
	c.checkEntry(c.memoFor(e.ClassSet()), e, r)
	return r.Legal()
}

// The content check decides the class schema once per class set, not
// once per entry. Everything Definition 2.3 (class-schema conditions 1–4)
// and Definition 2.2 (ρr, ρa) say about an entry depends on its classes
// alone, and dirtree interns class sets, so entries with equal classes
// share one *dirtree.ClassSet; a whitepages instance of 100k entries has
// about a dozen. A setMemo holds that decision, built from the set's
// sorted names. checkEntry, the per-entry pass, stamps the memo's class
// violations with the entry, tests each required attribute with HasAttr,
// merges the entry's sorted attribute names against the sorted allowed
// union, and types the values. A full check builds one memo per live set
// (checkContent); the single-entry paths read a per-checker cache of
// legal sets (memoFor). naiveContentCheck (naive.go) is the per-entry
// reference the differential oracle holds this to, byte for byte.

// setMemo is the content check's decision for one class set.
type setMemo struct {
	// class holds the violations of class-schema conditions 1–4, in
	// emission order, with no Entry: templates for every entry of the set.
	class []Violation
	// required is the (class, ρr(class)) list, by sorted class then
	// sorted attribute, with each pair's missing-attribute detail.
	required []requiredAttr
	// allowed is the union of ρa over the set, sorted.
	allowed []string
}

type requiredAttr struct {
	attr, detail string
}

// newSetMemo decides the class-dependent content conditions for set.
func newSetMemo(s *Schema, set *dirtree.ClassSet) *setMemo {
	m := &setMemo{}
	cs, classes := s.Classes, set.Names

	// Class schema, condition 1: only declared object classes.
	for _, cls := range classes {
		if !cs.Declared(cls) {
			m.class = append(m.class, Violation{Kind: violationUnknownClass,
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
		m.class = append(m.class, Violation{Kind: violationNoCoreClass,
			Detail: "entry belongs to no core object class"})
	} else {
		// Condition 3 (single inheritance): the core classes must be
		// exactly the superclass chain of the deepest one — every chain
		// member present (ci ⇒ cj), nothing off the chain (ci ⊗ cj).
		var chain []string
		for sup, ok := deepest, true; ok; sup, ok = cs.Superclass(sup) {
			chain = append(chain, sup)
			if !set.Has(sup) {
				m.class = append(m.class, Violation{Kind: violationInheritance,
					Element: Subclass{Sub: deepest, Super: sup},
					Detail:  fmt.Sprintf("belongs to %s but not to its superclass %s", deepest, sup)})
			}
		}
		for _, cls := range classes {
			if cs.IsCore(cls) && !slices.Contains(chain, cls) {
				m.class = append(m.class, Violation{Kind: violationIncomparable,
					Element: Disjoint{A: deepest, B: cls},
					Detail:  fmt.Sprintf("core classes %s and %s are incomparable", deepest, cls)})
			}
		}
	}

	// Class schema, condition 4: every auxiliary class must be allowed by
	// some core class of the set.
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
			m.class = append(m.class, Violation{Kind: violationDisallowedAux,
				Detail: fmt.Sprintf("auxiliary class %s is not allowed by any of the entry's core classes", cls)})
		}
	}

	// Attribute schema: the flattened ρr list and the ρa union.
	allowed := make(map[string]struct{})
	for _, cls := range classes {
		for _, a := range s.Attrs.Required(cls) {
			m.required = append(m.required, requiredAttr{a, fmt.Sprintf("class %s requires attribute %s", cls, a)})
		}
		for a := range s.Attrs.allowed[cls] {
			allowed[a] = struct{}{}
		}
	}
	m.allowed = sortedKeys(allowed)
	return m
}

// memoCache holds the memos of the class sets with no class-condition
// violation, keyed by dirtree.ClassSet.Key, for the single-entry paths.
// Only legal sets are kept, so its size is bounded by the schema, not by
// the class names clients send.
type memoCache struct {
	mu    sync.Mutex
	memos map[string]*setMemo
}

// memoFor returns the memo of set, from the checker's cache when the set
// has been seen before: the single-entry paths' legal path allocates
// nothing once the cache is warm.
func (c *Checker) memoFor(set *dirtree.ClassSet) *setMemo {
	c.cache.mu.Lock()
	m := c.cache.memos[set.Key()]
	c.cache.mu.Unlock()
	if m != nil {
		return m
	}
	m = newSetMemo(c.schema, set)
	if len(m.class) == 0 {
		c.cache.mu.Lock()
		if c.cache.memos == nil {
			c.cache.memos = make(map[string]*setMemo)
		}
		c.cache.memos[set.Key()] = m
		c.cache.mu.Unlock()
	}
	return m
}

// checkEntry is the per-entry pass over e, whose class set m decides. It
// runs once per entry of the instance on every full check, so its legal
// path does not allocate: the sorted attribute names live in a stack
// buffer (spilling to the heap only for an entry with more attributes
// than any schema here gives one). Per-entry garbage on a 100k-entry
// instance is a collector cycle every few CHECKs
// (TestEntryCheckDoesNotAllocate pins the zero).
func (c *Checker) checkEntry(m *setMemo, e *dirtree.Entry, r *Report) {
	for _, v := range m.class {
		v.Entry = e
		r.Add(v)
	}

	// Attribute schema, condition 1: required attributes present.
	for _, ra := range m.required {
		if !e.HasAttr(ra.attr) {
			r.Add(Violation{Kind: violationMissingAttr, Entry: e, Detail: ra.detail})
		}
	}

	// Attribute schema, condition 2: only allowed attributes present, a
	// merge of two sorted lists. objectClass is implicitly allowed
	// everywhere (Definition 2.1 ties it to the class set).
	var attrBuf [16]string
	attrs := e.AppendAttrNames(attrBuf[:0])
	allowed := m.allowed
	for _, a := range attrs {
		if a == dirtree.AttrObjectClass {
			continue
		}
		for len(allowed) > 0 && allowed[0] < a {
			allowed = allowed[1:]
		}
		if len(allowed) == 0 || allowed[0] != a {
			r.Add(Violation{Kind: violationDisallowedAttr, Entry: e,
				Detail: fmt.Sprintf("attribute %s is allowed by none of the entry's classes", a)})
		}
	}

	// Typing (Definition 2.1 condition 3(a)) and single-valued
	// declarations (Section 6.1), when a registry is present.
	if reg := c.schema.Registry; reg != nil {
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

// ---------------------------------------------------------------------
// Structure schema (Section 3.2): query-based checks.

// CheckStructure tests the structure schema using the Figure 4 reduction:
// one hierarchical selection query per element, each evaluated in
// O(|Q|·|D|), the queries spread across the worker pool.
func (c *Checker) CheckStructure(d *dirtree.Directory) *Report {
	return c.checkStructure(d, c.workersFor(d.Len()))
}

func (c *Checker) addWitnesses(r *Report, kind ViolationKind, el Element, witnesses []*dirtree.Entry) {
	for i, w := range witnesses {
		if c.MaxWitnesses > 0 && i >= c.MaxWitnesses {
			r.Truncated = true
			return
		}
		r.Add(Violation{Kind: kind, Entry: w, Element: el})
	}
}
