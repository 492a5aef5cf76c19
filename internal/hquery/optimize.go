package hquery

import (
	"boundschema/internal/dirtree"
	"boundschema/internal/filter"
)

// SchemaFacts supplies schema-derived guarantees about *legal* instances,
// used by Optimize. The paper's conclusion (§7) points at exactly this:
// "query optimization is facilitated using schema". The core package's
// inference closure implements the interface.
//
// All guarantees are with respect to instances legal under the schema;
// optimized queries are equivalent to the originals only on such
// instances.
type SchemaFacts interface {
	// UnsatClass reports that no entry of class c occurs in any legal
	// instance.
	UnsatClass(c string) bool
	// Required reports that every ci entry has an axis-related cj entry
	// (axis is one of "child", "descendant", "parent", "ancestor").
	Required(ci, axis, cj string) bool
	// Forbidden reports that no cj entry is a child/descendant of a ci
	// entry (axis is "child" or "descendant").
	Forbidden(ci, axis, cj string) bool
}

// Optimize rewrites the query using schema guarantees, preserving its
// results on every instance legal under the schema the facts derive
// from:
//
//   - an atom over an unsatisfiable class is empty;
//   - δax(σci, σcj) collapses to σci when the schema guarantees the
//     relationship, and to ∅ when it forbids it;
//   - operators over empty operands fold away;
//   - σ−(q, q) is empty.
//
// Only atoms over the default instance participate (the Figure 5
// Δ-queries mix sub-instances, where these guarantees do not transfer).
// Empty results are represented as atoms over the ∅ instance, so the
// optimized query stays a regular Query.
func Optimize(q Query, f SchemaFacts) Query {
	return optimize(q, f)
}

// isStaticallyEmpty reports whether the query optimized to a form that is
// empty on every legal instance — e.g. a Figure 4 violation query whose
// element the schema itself guarantees.
func isStaticallyEmpty(q Query) bool {
	sel, ok := q.(selectQ)
	return ok && sel.inst == instEmpty
}

func optimize(q Query, f SchemaFacts) Query {
	switch t := q.(type) {
	case selectQ:
		if t.inst != InstDefault {
			return t
		}
		if cls, rest, ok := classLead(t.f); ok && rest == nil && f.UnsatClass(cls) {
			return emptyOf(t.f)
		}
		return t

	case binQ:
		left := optimize(t.left, f)
		right := optimize(t.right, f)

		// Fold empties.
		if isStaticallyEmpty(left) {
			return left // every operator with an empty left is empty
		}
		if isStaticallyEmpty(right) {
			if t.kind == opMinus {
				return left // σ−(A, ∅) = A
			}
			return emptyQuery(left) // joins with an empty right are empty
		}

		// σ−(q, q) = ∅.
		if t.kind == opMinus && String(left) == String(right) {
			return emptyQuery(left)
		}

		// Axis guarantees between pure default-instance class atoms.
		if ci, ok1 := pureDefaultClass(left); ok1 {
			if cj, ok2 := pureDefaultClass(right); ok2 {
				axis := axisName(t.kind)
				if axis != "" {
					// A forbidden pair empties the join: downward axes
					// directly, upward axes through the flipped fact
					// (forb(cj,ch,ci) means no ci sits under a cj).
					switch t.kind {
					case opChild, opDesc:
						if f.Forbidden(ci, axis, cj) {
							return emptyQuery(left)
						}
					case opParent:
						if f.Forbidden(cj, "child", ci) {
							return emptyQuery(left)
						}
					case opAnc:
						if f.Forbidden(cj, "descendant", ci) {
							return emptyQuery(left)
						}
					}
					if f.Required(ci, axis, cj) {
						return left // every ci entry qualifies
					}
				}
			}
		}
		return binQ{kind: t.kind, left: left, right: right}
	}
	return q
}

// pureDefaultClass recognizes an (objectClass=c) atom over the default
// instance.
func pureDefaultClass(q Query) (string, bool) {
	sel, ok := q.(selectQ)
	if !ok || sel.inst != InstDefault {
		return "", false
	}
	cls, rest, ok := classLead(sel.f)
	if !ok || rest != nil {
		return "", false
	}
	return cls, true
}

func axisName(k opKind) string {
	switch k {
	case opChild:
		return "child"
	case opDesc:
		return "descendant"
	case opParent:
		return "parent"
	case opAnc:
		return "ancestor"
	}
	return ""
}

// emptyQuery returns a statically-empty query; when the operand was a
// class atom its filter is preserved for readability.
func emptyQuery(operand Query) Query {
	if sel, ok := operand.(selectQ); ok {
		return emptyOf(sel.f)
	}
	return emptyOf(filter.ClassIs(dirtree.AttrObjectClass))
}

func emptyOf(f filter.Filter) Query { return selectQ{f: f, inst: instEmpty} }
