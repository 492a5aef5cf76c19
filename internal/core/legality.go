package core

import (
	"fmt"
	"slices"
	"time"

	"boundschema/internal/dirtree"
)

// Checker tests legality of directory instances against one schema
// (Section 3). It is stateless apart from the schema and safe for
// concurrent use.
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
	c.checkEntry(e, r)
	return r
}

// EntryLegal reports whether the entry satisfies the content schema.
func (c *Checker) EntryLegal(e *dirtree.Entry) bool {
	r := &Report{}
	c.checkEntry(e, r)
	return r.Legal()
}

// checkEntry runs once per entry of the instance on every full check, so
// its legal path does not allocate: the sorted class, attribute and
// superclass-chain lists live in stack buffers (spilling to the heap only
// for an entry with more names than any schema here gives one), and
// ρr(c) is sorted only when an attribute is actually missing. Per-entry
// garbage on a 100k-entry instance is a collector cycle every few CHECKs,
// and a CHECK that overlaps one takes up to twice as long as one that
// does not (TestEntryCheckDoesNotAllocate pins the zero).
func (c *Checker) checkEntry(e *dirtree.Entry, r *Report) {
	cs := c.schema.Classes
	var classBuf, attrBuf [16]string
	var chainBuf [8]string
	classes := e.AppendClasses(classBuf[:0])

	// Class schema, condition 1: only declared object classes.
	for _, cls := range classes {
		if !cs.Declared(cls) {
			r.Add(Violation{Kind: ViolationUnknownClass, Entry: e,
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
		r.Add(Violation{Kind: ViolationNoCoreClass, Entry: e,
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
				r.Add(Violation{Kind: ViolationInheritance, Entry: e,
					Element: Subclass{Sub: deepest, Super: sup},
					Detail:  fmt.Sprintf("belongs to %s but not to its superclass %s", deepest, sup)})
			}
		}
		for _, cls := range classes {
			if !cs.IsCore(cls) {
				continue
			}
			if !slices.Contains(chain, cls) {
				r.Add(Violation{Kind: ViolationIncomparable, Entry: e,
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
			r.Add(Violation{Kind: ViolationDisallowedAux, Entry: e,
				Detail: fmt.Sprintf("auxiliary class %s is not allowed by any of the entry's core classes", cls)})
		}
	}

	// Attribute schema, condition 1: required attributes present.
	as := c.schema.Attrs
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
				r.Add(Violation{Kind: ViolationMissingAttr, Entry: e,
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
			r.Add(Violation{Kind: ViolationDisallowedAttr, Entry: e,
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
					r.Add(Violation{Kind: ViolationTyping, Entry: e, Detail: err.Error()})
					break
				}
			}
			if reg.SingleValued(a) && len(vs) > 1 {
				r.Add(Violation{Kind: ViolationTyping, Entry: e,
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
