package core

import (
	"fmt"
)

// Lint inspects a schema for quality problems short of inconsistency —
// the diagnostics a schema author wants before deployment. Findings do
// not affect legality; they flag dead weight and latent traps:
//
//   - unsatisfiable classes (no legal instance can populate them);
//   - auxiliary classes no core class allows (undeclarable in practice);
//   - classes carrying attribute requirements but unreachable from the
//     structure schema or attribute allowances (likely typos);
//   - redundant structure elements: the elements Cover drops. The cover
//     implies each of them, so removing all of them together changes
//     nothing about which instances are legal.
type LintFinding struct {
	// Kind is a stable identifier: unsatisfiable-class, orphan-aux,
	// unused-class, redundant-element.
	Kind string
	// Subject names the class or renders the element concerned.
	Subject string
	Detail  string
}

func (f LintFinding) String() string {
	return fmt.Sprintf("%-20s %-28s %s", f.Kind, f.Subject, f.Detail)
}

// Lint returns the findings for the schema, deterministic in order.
func Lint(s *Schema) []LintFinding {
	var out []LintFinding
	in := Infer(s)

	// Unsatisfiable classes that the schema still talks about.
	for _, c := range s.Classes.CoreClasses() {
		if in.unsatisfiable(c) {
			out = append(out, LintFinding{
				Kind:    "unsatisfiable-class",
				Subject: c,
				Detail:  "no legal instance can contain an entry of this class",
			})
		}
	}

	// Auxiliary classes no core class allows.
	allowed := make(map[string]bool)
	for _, c := range s.Classes.CoreClasses() {
		for _, x := range s.Classes.AuxesOf(c) {
			allowed[x] = true
		}
	}
	for _, x := range s.Classes.AuxClasses() {
		if !allowed[x] {
			out = append(out, LintFinding{
				Kind:    "orphan-aux",
				Subject: x,
				Detail:  "declared auxiliary class is allowed by no core class",
			})
		}
	}

	// Leaf core classes that nothing references: no attributes, no
	// structure elements, no subclasses, no aux allowances.
	structClasses := toSet(s.Structure.Classes())
	attrClasses := toSet(s.Attrs.Classes())
	for _, c := range s.Classes.CoreClasses() {
		if c == ClassTop {
			continue
		}
		if len(s.Classes.Subclasses(c)) > 0 {
			continue
		}
		_, inStruct := structClasses[c]
		_, inAttrs := attrClasses[c]
		if !inStruct && !inAttrs && len(s.Classes.AuxesOf(c)) == 0 {
			out = append(out, LintFinding{
				Kind:    "unused-class",
				Subject: c,
				Detail:  "leaf core class with no attributes, structure elements or auxiliaries",
			})
		}
	}

	_, dropped := Cover(s)
	for _, el := range dropped {
		out = append(out, LintFinding{
			Kind:    "redundant-element",
			Subject: el.Element.ElementString(),
			Detail:  "implied by the schema's cover (Figures 6-7)",
		})
	}
	return out
}

// implies reports whether the closure of s (Figures 6-7) derives the
// structure element e: a required class, or a required or forbidden
// relationship. The closure is sound (Theorem 5.1), so every instance
// legal under s then satisfies e. Elements of the class schema are never
// reported implied.
func implies(s *Schema, e Element) bool { return Infer(s).implies(e) }

// ImpliedElement is a structure element Cover drops, with the closure's
// derivation of it from the cover (Inference.explain).
type ImpliedElement struct {
	Element    Element
	Derivation string
}

// Cover splits the schema's structure elements into a non-redundant cover
// and the elements it implies, both in Schema.Elements order. It walks the
// elements greedily, dropping one when the elements not yet dropped imply
// it without it. Each drop keeps the legal instances (Theorem 5.1), and of
// two elements that imply each other only the first goes. A kept element
// is not implied by a superset of the cover, so, the closure being
// monotone, no kept element is implied by the others.
func Cover(s *Schema) (kept []Element, dropped []ImpliedElement) {
	// The closure reads only the class and structure schemas.
	cut := &Schema{Classes: s.Classes, Structure: s.Structure}
	var implied []Element
	for _, el := range s.Structure.elements() {
		rest := &Schema{Classes: s.Classes, Structure: cut.Structure.without(el)}
		if implies(rest, el) {
			cut, implied = rest, append(implied, el)
		} else {
			kept = append(kept, el)
		}
	}
	in := Infer(cut)
	for _, el := range implied {
		dropped = append(dropped, ImpliedElement{Element: el, Derivation: in.explain(el)})
	}
	return kept, dropped
}
