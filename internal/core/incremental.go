package core

import (
	"boundschema/internal/hquery"
)

// This file implements Figure 5 and Theorem 4.2: for a directory D known
// to be legal and an update consisting of a single subtree Δ (the
// granularity justified by Theorem 4.1), it derives for every structure-
// schema element the Δ-query Q± — syntactically the Figure 4 query with
// each sub-expression evaluated against ∅, Δ, D or D±Δ — that decides
// whether the update preserves legality.
//
// Insertion (checked after grafting Δ; full = D+Δ, base = D, delta = Δ):
//
//	ci →ch cj   Y   σ−( σci[Δ], δc(σci[Δ], σcj[Δ]) )
//	ci →pa cj   Y   σ−( σci[Δ], δp(σci[Δ], σcj[D+Δ]) )
//	ci →de cj   Y   σ−( σci[Δ], δd(σci[Δ], σcj[Δ]) )
//	ci →an cj   Y   σ−( σci[Δ], δa(σci[Δ], σcj[D+Δ]) )
//	ci ⇥ch cj   Y   δc(σci[D+Δ], σcj[Δ])
//	ci ⇥de cj   Y   δd(σci[D+Δ], σcj[Δ])
//	c⇓          Y   no check (insertion cannot remove entries)
//
// Rationale: children and descendants of Δ entries lie inside Δ, so the
// downward required axes close over Δ; the parent/ancestor of the Δ root
// lies in D, so the upward target atoms range over D+Δ; a new forbidden
// pair must have its lower entry in Δ.
//
// Deletion (checked before removing Δ; base = D−Δ, delta = Δ):
//
//	ci →ch cj   N   full recheck on D−Δ
//	ci →pa cj   Y   no check (a survivor's parent survives)
//	ci →de cj   N   full recheck on D−Δ
//	ci →an cj   Y   no check (a survivor's ancestors survive)
//	ci ⇥ch cj   Y   no check (deletion cannot create pairs)
//	ci ⇥de cj   Y   no check
//	c⇓          N   recheck σc[D−Δ] non-empty
//
// Theorem 4.2 states this characterization is tight: the N rows are not
// incrementally testable in general — from D and Δ alone. With the
// auxiliary structures the directory already keeps current under every
// update (the interval encoding and the per-class posting lists sorted
// by pre-order rank), each N row becomes a count, and txn.Applier runs
// that form:
//
//	c⇓          |postings(c)| − |postings(c) ∩ Δ| > 0 (the Section 4
//	            count remark)
//	ci →de cj   for each ci ancestor anc of Δ:
//	            |postings(cj) ∩ (anc.pre, anc.post]| − |postings(cj) ∩ Δ| > 0
//	            (binary searches on cj's posting list)
//	ci →ch cj   Δ's parent, if a ci, keeps a cj child besides Δ's root
//
// The Δ-queries below remain the paper's rows; DeleteChecks returns them
// unchanged.

// DeltaCheck is the per-element outcome of the Figure 5 analysis.
type DeltaCheck struct {
	// Element is the structure-schema element being protected.
	Element Element
	// Query is the Δ-query to evaluate, or nil when no check is needed.
	Query hquery.Query
	// WantEmpty is true when legality requires the query to be empty
	// (relationships) and false when it must be non-empty (required
	// classes).
	WantEmpty bool
	// Incremental is the Y/N column of Figure 5: true when the check's
	// cost is bounded by the update rather than the instance.
	Incremental bool
}

// Holds reports whether the check passes under the binding.
func (c DeltaCheck) Holds(b hquery.Binding) bool {
	if c.Query == nil {
		return true
	}
	empty := hquery.Empty(c.Query, b)
	if c.WantEmpty {
		return empty
	}
	return !empty
}

// insertCheckRel returns the Figure 5 insertion row for a required
// relationship.
func insertCheckRel(r RequiredRel) DeltaCheck {
	tgt := hquery.InstDelta
	if !r.Axis.Downward() {
		// The Δ root's parent and ancestors lie outside Δ.
		tgt = hquery.InstFull
	}
	return DeltaCheck{
		Element:     r,
		Query:       requiredRelQueryOn(r, hquery.InstDelta, tgt),
		WantEmpty:   true,
		Incremental: true,
	}
}

// insertCheckForb returns the Figure 5 insertion row for a forbidden
// relationship.
func insertCheckForb(f ForbiddenRel) DeltaCheck {
	return DeltaCheck{
		Element:     f,
		Query:       forbiddenRelQueryOn(f, hquery.InstFull, hquery.InstDelta),
		WantEmpty:   true,
		Incremental: true,
	}
}

// insertCheckClass returns the insertion row for a required class:
// insertions cannot violate c⇓, so there is nothing to evaluate.
func insertCheckClass(c string) DeltaCheck {
	return DeltaCheck{Element: RequiredClass{Class: c}, Incremental: true}
}

// deleteCheckRel returns the Figure 5 deletion row for a required
// relationship: downward axes need a full recheck over the survivors,
// upward axes need nothing.
func deleteCheckRel(r RequiredRel) DeltaCheck {
	if !r.Axis.Downward() {
		return DeltaCheck{Element: r, Incremental: true}
	}
	return DeltaCheck{
		Element:     r,
		Query:       requiredRelQueryOn(r, hquery.InstBase, hquery.InstBase),
		WantEmpty:   true,
		Incremental: false,
	}
}

// deleteCheckForb returns the deletion row for a forbidden relationship:
// deleting entries cannot create forbidden pairs.
func deleteCheckForb(f ForbiddenRel) DeltaCheck {
	return DeltaCheck{Element: f, Incremental: true}
}

// deleteCheckClass returns the deletion row for a required class: without
// auxiliary state the survivors must be rescanned (the Section 4 remark;
// txn.Applier counts the class posting list instead).
func deleteCheckClass(c string) DeltaCheck {
	return DeltaCheck{
		Element:     RequiredClass{Class: c},
		Query:       hquery.ClassAtomOn(c, hquery.InstBase),
		WantEmpty:   false,
		Incremental: false,
	}
}

// InsertChecks returns the Figure 5 insertion checks for every structure-
// schema element.
func InsertChecks(s *StructureSchema) []DeltaCheck {
	out := make([]DeltaCheck, 0, s.Size())
	for _, c := range s.RequiredClasses() {
		out = append(out, insertCheckClass(c))
	}
	for _, r := range s.RequiredRels() {
		out = append(out, insertCheckRel(r))
	}
	for _, f := range s.ForbiddenRels() {
		out = append(out, insertCheckForb(f))
	}
	return out
}

// DeleteChecks returns the Figure 5 deletion checks for every structure-
// schema element.
func DeleteChecks(s *StructureSchema) []DeltaCheck {
	out := make([]DeltaCheck, 0, s.Size())
	for _, c := range s.RequiredClasses() {
		out = append(out, deleteCheckClass(c))
	}
	for _, r := range s.RequiredRels() {
		out = append(out, deleteCheckRel(r))
	}
	for _, f := range s.ForbiddenRels() {
		out = append(out, deleteCheckForb(f))
	}
	return out
}
