package txn

import (
	"fmt"
	"slices"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/hquery"
)

// Applier applies update transactions to a directory while preserving
// legality, per Section 4. The zero value is not usable; construct with
// NewApplier.
//
// It checks Δ only: content and key checks over its entries, the
// Figure 5 Δ-queries for insertions, and, for the deletion rows
// Theorem 4.2 marks N, counts over the directory's class posting lists.
// Every check reads structures the directory itself keeps current under
// mutation — the interval encoding, the class posting lists and the
// attribute-value indexes — so the applier holds no state of its own
// beyond the Figure 5 rows, and a refused transaction is undone by its
// undo closures alone: it costs what its Δ costs, not O(|D|). That is
// why every path applies through it alike: a primary's COMMIT, journal
// replay at recovery, and a replica's replicated segments.
type Applier struct {
	checker *core.Checker
	// Deprecated: ignored; c⇓ under deletion reads the class posting
	// lists. bench/layers.go is the last caller.
	Counts *CountIndex
	// Deprecated: ignored; downward required relationships under deletion
	// are always checked along Δ's ancestors. bench/layers.go is the last
	// caller.
	NarrowDeletes bool

	// inserts and deletes are the Figure 5 rows that need a check, built
	// once: the schema must not change after NewApplier.
	inserts, deletes []core.DeltaCheck
}

// CountIndex is an empty placeholder.
//
// Deprecated: required classes under deletion are counted off the
// directory's class posting lists (Directory.ClassCount).
// bench/layers.go is the last caller.
type CountIndex struct{}

// NewCountIndex returns an empty CountIndex in O(1).
//
// Deprecated: see CountIndex; bench/layers.go is the last caller.
func NewCountIndex(*dirtree.Directory) *CountIndex { return &CountIndex{} }

// NewApplier returns an applier checking against the given schema, which
// must not change afterwards.
func NewApplier(s *core.Schema) *Applier {
	a := &Applier{checker: core.NewChecker(s)}
	for _, chk := range core.InsertChecks(s.Structure) {
		if chk.Query != nil {
			a.inserts = append(a.inserts, chk)
		}
	}
	for _, chk := range core.DeleteChecks(s.Structure) {
		if chk.Query != nil {
			a.deletes = append(a.deletes, chk)
		}
	}
	return a
}

// Checker exposes the underlying legality checker.
func (a *Applier) Checker() *core.Checker { return a.checker }

// Apply normalizes and applies the transaction to d. If the update would
// make the instance illegal, Apply rolls every operation back and returns
// the violation report; d is then unchanged. On success the returned
// report is empty.
//
// Per Theorem 4.1, the subtree insertions are applied and checked first,
// then the subtree deletions, and the verdict is independent of the
// original operation order.
func (a *Applier) Apply(d *dirtree.Directory, t *Transaction) (*core.Report, error) {
	norm, err := Normalize(d, t)
	if err != nil {
		return nil, err
	}
	return a.ApplyNormalized(d, norm)
}

// ApplyWithUndo is Apply plus a revert handle: on a successful, legal
// application it additionally returns a non-nil undo function that
// reverses the transaction, restoring the instance exactly (sibling
// order included). Undo must be called before any further mutation of d
// (the server's durable-commit path calls it under the same write lock
// when a journal write fails, so a non-durable commit is never visible).
func (a *Applier) ApplyWithUndo(d *dirtree.Directory, t *Transaction) (*core.Report, func() error, error) {
	norm, err := Normalize(d, t)
	if err != nil {
		return nil, nil, err
	}
	return a.applyNormalized(d, norm)
}

// ComposeUndo combines the undo closures of transactions applied in
// sequence into one closure reverting them all. Undos run newest-first,
// so each closure sees exactly the directory state its transaction left
// behind — the property the server's group-commit pipeline relies on
// when a failed batch sync must unwind every member (and anything
// applied on top) in reverse apply order. nil entries are skipped; the
// first failing undo aborts the unwind, since later (older) closures
// can no longer trust the state.
func ComposeUndo(undos ...func() error) func() error {
	return func() error {
		for i := len(undos) - 1; i >= 0; i-- {
			if undos[i] == nil {
				continue
			}
			if err := undos[i](); err != nil {
				return fmt.Errorf("txn: batch rollback at member %d: %v", i, err)
			}
		}
		return nil
	}
}

// ApplyNormalized applies a pre-normalized update.
func (a *Applier) ApplyNormalized(d *dirtree.Directory, norm *Normalized) (*core.Report, error) {
	r, _, err := a.applyNormalized(d, norm)
	return r, err
}

func (a *Applier) applyNormalized(d *dirtree.Directory, norm *Normalized) (*core.Report, func() error, error) {
	var undo []func() error
	rollback := func() error {
		for i := len(undo) - 1; i >= 0; i-- {
			if err := undo[i](); err != nil {
				return fmt.Errorf("txn: rollback failed: %v", err)
			}
		}
		return nil
	}
	refuse := func(r *core.Report, err error) (*core.Report, func() error, error) {
		if rerr := rollback(); rerr != nil {
			return nil, nil, rerr
		}
		return r, nil, err
	}

	// Insertions first (Theorem 4.1).
	for _, ins := range norm.Inserts {
		var parent *dirtree.Entry
		if ins.ParentDN != "" {
			if parent = d.ByDN(ins.ParentDN); parent == nil {
				return refuse(nil, fmt.Errorf("txn: graft parent %q vanished", ins.ParentDN))
			}
		}
		root, err := d.GraftSubtree(parent, ins.Fragment.Roots()[0])
		if err != nil {
			return refuse(nil, err)
		}
		rootDN := root.DN()
		undo = append(undo, func() error {
			e := d.ByDN(rootDN)
			if e == nil {
				return fmt.Errorf("inserted root %q vanished", rootDN)
			}
			_, err := d.DeleteSubtree(e)
			return err
		})
		if r := a.checkInsert(d, root, norm.Deletes); !r.Legal() {
			return refuse(r, nil)
		}
	}

	// Then deletions.
	for _, dn := range norm.Deletes {
		root := d.ByDN(dn)
		if root == nil {
			return refuse(nil, fmt.Errorf("txn: delete root %q vanished", dn))
		}
		if r := a.checkDelete(d, root); !r.Legal() {
			return refuse(r, nil)
		}
		// Note the sibling position for rollback, then delete. The
		// detached subtree keeps its RDNs, classes, values and children,
		// so the rollback grafts from it directly.
		parentDN, sibs := "", d.Roots()
		if p := root.Parent(); p != nil {
			parentDN, sibs = p.DN(), p.Children()
		}
		at := slices.Index(sibs, root)
		if _, err := d.DeleteSubtree(root); err != nil {
			return refuse(nil, err)
		}
		undo = append(undo, func() error {
			var parent *dirtree.Entry
			if parentDN != "" {
				if parent = d.ByDN(parentDN); parent == nil {
					return fmt.Errorf("delete parent %q vanished", parentDN)
				}
			}
			_, err := d.GraftSubtreeAt(parent, root, at)
			return err
		})
	}
	return &core.Report{}, rollback, nil
}

// checkInsert verifies that the grafted subtree preserves legality;
// deleting names the subtree roots the same update deletes.
func (a *Applier) checkInsert(d *dirtree.Directory, root *dirtree.Entry, deleting []string) *core.Report {
	r := &core.Report{}
	// Content schema: insertion preserves content legality iff Δ itself
	// is content-legal (Section 4.2).
	for _, e := range d.SubtreeView(root).Entries() {
		r.Merge(a.checker.CheckEntry(e))
	}
	// Keys (Section 6.1), off the directory's value indexes.
	r.Merge(a.checker.CheckInsertKeys(d, root, deleting))
	// Structure schema: the Figure 5 insertion rows.
	b := hquery.DeltaBinding(d, root)
	for _, chk := range a.inserts {
		if !chk.Holds(b) {
			r.Add(core.Violation{
				Kind:    violationKindFor(chk.Element),
				Element: chk.Element,
				Detail:  "insertion breaks this element (Figure 5 check)",
			})
		}
	}
	return r
}

// checkDelete verifies, before removal, that deleting the subtree
// preserves legality. Figure 5's deletion N rows — c⇓ and the downward
// required relationships — are decided from the class posting lists in
// O(depth · log |D|); every other deletion row needs no check.
func (a *Applier) checkDelete(d *dirtree.Directory, root *dirtree.Entry) *core.Report {
	r := &core.Report{}
	for _, chk := range a.deletes {
		switch el := chk.Element.(type) {
		case core.RequiredClass:
			// The Section 4 count remark: c survives iff its posting list
			// is longer than its part inside Δ.
			if d.ClassCount(el.Class)-len(d.SubtreeView(root).ClassEntries(el.Class)) <= 0 {
				r.Add(core.Violation{
					Kind:    core.ViolationMissingClass,
					Element: el,
					Detail:  "deletion removes the last entry of a required class (class posting list)",
				})
			}
		case core.RequiredRel:
			if w := NarrowedDeleteCheck(d, root, el); w != nil {
				r.Add(core.Violation{
					Kind:    core.ViolationRequiredRel,
					Entry:   w,
					Element: el,
					Detail:  "deletion removes the last witness (class posting list)",
				})
			}
		}
	}
	return r
}

// NarrowedDeleteCheck decides a downward required relationship
// (ci →ch cj or ci →de cj) under the deletion of the subtree Δ rooted at
// root, before removal. Only Δ's ancestors lose children or descendants,
// and on a legal instance each had a witness before:
//
//   - →de: a ci ancestor anc keeps one iff
//     |postings(cj) ∩ (anc.pre, anc.post]| − |postings(cj) ∩ Δ| > 0,
//     binary searches on cj's posting list, no walk and no allocation;
//   - →ch: only Δ's parent loses a child, so only it is consulted.
//
// It returns the nearest violating ancestor or nil — the verdict of
// Figure 5's full recheck over D−Δ, which Theorem 4.2 shows cannot be
// incremental without auxiliary structures like these posting lists.
func NarrowedDeleteCheck(d *dirtree.Directory, root *dirtree.Entry, rel core.RequiredRel) *dirtree.Entry {
	if rel.Axis == core.AxisChild {
		p := root.Parent()
		if p == nil || !p.HasClass(rel.Source) || !root.HasClass(rel.Target) {
			return nil
		}
		for _, c := range p.Children() {
			if c != root && c.HasClass(rel.Target) {
				return nil
			}
		}
		return p
	}
	lost := len(d.SubtreeView(root).ClassEntries(rel.Target))
	if lost == 0 {
		return nil
	}
	for anc := root.Parent(); anc != nil; anc = anc.Parent() {
		if !anc.HasClass(rel.Source) {
			continue
		}
		below := len(d.SubtreeView(anc).ClassEntries(rel.Target))
		if anc.HasClass(rel.Target) {
			below-- // (anc.pre, anc.post] excludes anc itself
		}
		if below-lost <= 0 {
			return anc
		}
	}
	return nil
}

func violationKindFor(el core.Element) core.ViolationKind {
	switch el.(type) {
	case core.RequiredClass:
		return core.ViolationMissingClass
	case core.RequiredRel:
		return core.ViolationRequiredRel
	default:
		return core.ViolationForbiddenRel
	}
}
