package core

import (
	"fmt"
	"strings"

	"boundschema/internal/dirtree"
)

// ViolationKind classifies legality violations by the Definition 2.7
// condition they break.
type ViolationKind int

// Violation kinds. The first group is content-schema (per entry), the
// second structure-schema (instance-wide).
const (
	violationTyping         ViolationKind = iota // value outside dom(τ(a)) or single-value overflow
	violationMissingAttr                         // required attribute absent
	violationDisallowedAttr                      // attribute allowed by no class of the entry
	violationUnknownClass                        // class not declared in the schema
	violationNoCoreClass                         // entry has no core class
	violationInheritance                         // superclass missing (ci ⇒ cj broken)
	violationIncomparable                        // two incomparable core classes (ci ⊗ cj broken)
	violationDisallowedAux                       // auxiliary class not allowed by any core class
	violationDuplicateKey                        // key attribute value used by two entries (Section 6.1)
	ViolationMissingClass                        // required class c⇓ has no entry
	ViolationRequiredRel                         // required structural relationship broken
	ViolationForbiddenRel                        // forbidden structural relationship present
)

var violationNames = [...]string{
	"typing", "missing-attribute", "disallowed-attribute", "unknown-class",
	"no-core-class", "inheritance", "incomparable-classes", "disallowed-aux",
	"duplicate-key",
	"missing-required-class", "required-relationship", "forbidden-relationship",
}

func (k ViolationKind) String() string {
	if k < 0 || int(k) >= len(violationNames) {
		return fmt.Sprintf("violation(%d)", int(k))
	}
	return violationNames[k]
}

// Violation is one legality defect, with the witness entry when one
// exists (missing required classes have none).
type Violation struct {
	Kind    ViolationKind
	Entry   *dirtree.Entry // witness; nil for ViolationMissingClass
	Element Element        // the broken schema element, when applicable
	Detail  string
}

func (v Violation) String() string {
	var b strings.Builder
	b.WriteString(v.Kind.String())
	if v.Entry != nil {
		fmt.Fprintf(&b, " at %s", v.Entry.DN())
	}
	if v.Element != nil {
		fmt.Fprintf(&b, " [%s]", v.Element.ElementString())
	}
	if v.Detail != "" {
		b.WriteString(": ")
		b.WriteString(v.Detail)
	}
	return b.String()
}

// Report collects the violations found by a legality check. A nil or
// empty report means the instance is legal.
type Report struct {
	Violations []Violation
	// Truncated reports that the per-element witness cap was reached and
	// further witnesses were dropped.
	Truncated bool
}

// Legal reports whether no violations were found.
func (r *Report) Legal() bool { return r == nil || len(r.Violations) == 0 }

// Add appends a violation.
func (r *Report) Add(v Violation) { r.Violations = append(r.Violations, v) }

// Merge appends all of other's violations.
func (r *Report) Merge(other *Report) {
	if other == nil {
		return
	}
	r.Violations = append(r.Violations, other.Violations...)
	r.Truncated = r.Truncated || other.Truncated
}

// ByKind returns the violations of the given kind.
func (r *Report) ByKind(k ViolationKind) []Violation {
	var out []Violation
	for _, v := range r.Violations {
		if v.Kind == k {
			out = append(out, v)
		}
	}
	return out
}

func (r *Report) String() string {
	if r.Legal() {
		return "legal"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d violation(s)", len(r.Violations))
	if r.Truncated {
		b.WriteString(" (truncated)")
	}
	for _, v := range r.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return b.String()
}
