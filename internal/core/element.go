// Package core implements bounding-schemas for LDAP directories — the
// primary contribution of "On Bounding-Schemas for LDAP Directories"
// (EDBT 2000):
//
//   - the schema model of Section 2: attribute schema (Definition 2.2),
//     class schema (Definition 2.3), structure schema (Definition 2.4);
//   - legality testing of Section 3, with the structure schema reduced to
//     hierarchical selection queries per Figure 4 (Theorem 3.1), plus the
//     naive quadratic baseline it improves on;
//   - incremental legality testing under subtree updates of Section 4
//     (Figure 5, Theorems 4.1 and 4.2);
//   - schema-consistency testing of Section 5: the inference system of
//     Figures 6 and 7 (Theorem 5.1 soundness, Theorem 5.2 decision), and a
//     chase-based witness materializer that makes consistency constructive.
package core

import "fmt"

// ClassTop is the root of the core class hierarchy; every entry belongs to
// it (Definition 2.3).
const ClassTop = "top"

// classNone is the pseudo-class ∅ used by the inference system of Section
// 5: no entry may belong to it, so the schema element "∅ must exist"
// (Exists(classNone)) signals inconsistency, and "every c entry needs an
// axis-related ∅ entry" (RequiredRel with Target classNone) states that c
// is unsatisfiable.
const classNone = "∅"

// Axis is a hierarchical relationship direction between entries.
type Axis int

// The four axes of Definition 2.4. Forbidden relationships use only
// AxisChild and AxisDesc.
const (
	AxisChild  Axis = iota // one step down
	AxisDesc               // any number of steps down (proper)
	AxisParent             // one step up
	AxisAnc                // any number of steps up (proper)
)

var axisNames = [...]string{"child", "descendant", "parent", "ancestor"}

func (a Axis) String() string {
	if a < 0 || int(a) >= len(axisNames) {
		return fmt.Sprintf("axis(%d)", int(a))
	}
	return axisNames[a]
}

// ParseAxis maps an axis name from the schema DSL back to an Axis.
func ParseAxis(s string) (Axis, error) {
	for i, n := range axisNames {
		if n == s {
			return Axis(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown axis %q", s)
}

// Downward reports whether the axis points from an entry toward its
// subtree (child/descendant) rather than toward its ancestors.
func (a Axis) Downward() bool { return a == AxisChild || a == AxisDesc }

// Transitive reports whether the axis spans arbitrarily many steps.
func (a Axis) Transitive() bool { return a == AxisDesc || a == AxisAnc }

// Element is a schema element in the sense of Definition 2.6: an atomic
// assertion a directory instance may satisfy or violate. The concrete
// elements are RequiredClass, RequiredRel, ForbiddenRel, Subclass and
// Disjoint.
type Element interface {
	// ElementString renders the element in the paper's notation.
	ElementString() string
}

// RequiredClass is the element c⇓: at least one entry belonging to class C
// must exist.
type RequiredClass struct {
	Class string
}

// ElementString implements Element.
func (e RequiredClass) ElementString() string { return e.Class + "⇓" }

// RequiredRel is a required structural relationship: every entry belonging
// to Source must have an Axis-related entry belonging to Target
// (ci →ch cj, ci →de cj, ci →pa cj, ci →an cj).
type RequiredRel struct {
	Source string
	Axis   Axis
	Target string
}

// ElementString implements Element.
func (e RequiredRel) ElementString() string {
	return fmt.Sprintf("%s →%s %s", e.Source, axisShort(e.Axis), e.Target)
}

// ForbiddenRel is a forbidden structural relationship: no entry belonging
// to Lower may be an Axis-related (child or proper descendant) entry of an
// entry belonging to Upper (ci ⇥ch cj, ci ⇥de cj).
type ForbiddenRel struct {
	Upper string
	Axis  Axis // AxisChild or AxisDesc
	Lower string
}

// ElementString implements Element.
func (e ForbiddenRel) ElementString() string {
	return fmt.Sprintf("%s ⇥%s %s", e.Upper, axisShort(e.Axis), e.Lower)
}

// Subclass is the co-occurrence element ci ⇒ cj induced by the core class
// hierarchy: every entry belonging to Sub must also belong to Super.
type Subclass struct {
	Sub, Super string
}

// ElementString implements Element.
func (e Subclass) ElementString() string { return e.Sub + " ⇒ " + e.Super }

// Disjoint is the forbidden co-occurrence element ci ⊗ cj induced by
// single inheritance between incomparable core classes: no entry may
// belong to both.
type Disjoint struct {
	A, B string
}

// ElementString implements Element.
func (e Disjoint) ElementString() string { return e.A + " ⊗ " + e.B }

func axisShort(a Axis) string {
	switch a {
	case AxisChild:
		return "ch"
	case AxisDesc:
		return "de"
	case AxisParent:
		return "pa"
	case AxisAnc:
		return "an"
	}
	return "?"
}
