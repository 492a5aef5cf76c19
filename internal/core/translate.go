package core

import (
	"boundschema/internal/hquery"
)

// This file implements the Figure 4 translation from structure-schema
// elements to hierarchical selection queries, such that a directory
// instance D is legal w.r.t. (Er, Ef) iff every translated query is empty,
// and legal w.r.t. Cr iff every required-class query is non-empty
// (Section 3.2).
//
//	ci →ch cj   ↦  σ−( σ(ci), δc(σ(ci), σ(cj)) )
//	ci →pa cj   ↦  σ−( σ(ci), δp(σ(ci), σ(cj)) )
//	ci →de cj   ↦  σ−( σ(ci), δd(σ(ci), σ(cj)) )
//	ci →an cj   ↦  σ−( σ(ci), δa(σ(ci), σ(cj)) )
//	ci ⇥ch cj   ↦  δc(σ(ci), σ(cj))
//	ci ⇥de cj   ↦  δd(σ(ci), σ(cj))
//	c⇓          ↦  σ(c)          (must be NON-empty)

// requiredRelQuery returns the violation query for a required structural
// relationship: it retrieves exactly the Source entries lacking the
// required Axis-related Target entry, so the instance satisfies the
// element iff the query is empty.
func requiredRelQuery(r RequiredRel) hquery.Query {
	return requiredRelQueryOn(r, hquery.InstDefault, hquery.InstDefault)
}

// requiredRelQueryOn builds the Figure 4 query with the source atoms
// evaluated on srcInst and the target atom on tgtInst — the generalization
// Figure 5 needs for incremental checking.
func requiredRelQueryOn(r RequiredRel, srcInst, tgtInst hquery.Inst) hquery.Query {
	src := hquery.ClassAtomOn(r.Source, srcInst)
	src2 := hquery.ClassAtomOn(r.Source, srcInst)
	tgt := hquery.ClassAtomOn(r.Target, tgtInst)
	var have hquery.Query
	switch r.Axis {
	case AxisChild:
		have = hquery.Child(src2, tgt)
	case AxisParent:
		have = hquery.Parent(src2, tgt)
	case AxisDesc:
		have = hquery.Desc(src2, tgt)
	case AxisAnc:
		have = hquery.Anc(src2, tgt)
	}
	return hquery.Minus(src, have)
}

// forbiddenRelQuery returns the violation query for a forbidden
// structural relationship: it retrieves the Upper entries that do have a
// forbidden Lower child/descendant, so the instance satisfies the element
// iff the query is empty.
func forbiddenRelQuery(f ForbiddenRel) hquery.Query {
	return forbiddenRelQueryOn(f, hquery.InstDefault, hquery.InstDefault)
}

func forbiddenRelQueryOn(f ForbiddenRel, upperInst, lowerInst hquery.Inst) hquery.Query {
	upper := hquery.ClassAtomOn(f.Upper, upperInst)
	lower := hquery.ClassAtomOn(f.Lower, lowerInst)
	if f.Axis == AxisChild {
		return hquery.Child(upper, lower)
	}
	return hquery.Desc(upper, lower)
}

// requiredClassQuery returns the query for c⇓; the instance satisfies the
// element iff the query is NON-empty.
func requiredClassQuery(c string) hquery.Query { return hquery.ClassAtom(c) }
