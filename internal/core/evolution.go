package core

import (
	"fmt"
	"sort"
	"strings"

	"boundschema/internal/dirtree"
)

// This file operationalizes the Section 6.2 observation that "many kinds
// of schema evolution ... are extremely lightweight, involving no
// modifications to existing directory entries": given an old and a new
// bounding-schema, PlanEvolution classifies every difference by the
// revalidation it demands on instances known to be legal under the old
// schema, and CheckEvolution runs exactly those checks — per-class
// content rechecks and per-element structure queries — instead of a full
// recheck.

// EvolutionCost classifies one schema change.
type EvolutionCost int

// Costs, from free to instance-wide.
const (
	// CostNone marks lightweight changes: every old-legal instance
	// remains legal (e.g. a new allowed attribute, a new class, a
	// removed requirement).
	CostNone EvolutionCost = iota
	// CostContent requires re-running the per-entry content check for
	// the entries of the affected classes.
	CostContent
	// CostStructure requires evaluating one structure-schema element's
	// query over the instance.
	CostStructure
)

func (c EvolutionCost) String() string {
	switch c {
	case CostNone:
		return "lightweight"
	case CostContent:
		return "content-recheck"
	case CostStructure:
		return "structure-check"
	}
	return "?"
}

// EvolutionStep is one classified difference between the schemas.
type EvolutionStep struct {
	Description string
	Cost        EvolutionCost
	// Classes lists the classes whose entries need a content recheck
	// (CostContent).
	Classes []string
	// Element is the structure element to evaluate (CostStructure), or
	// the new element the old schema implies (CostNone).
	Element Element
	// Derivation is the old schema's closure deriving an implied new
	// element, as Inference.Explain renders it.
	Derivation string
}

// EvolutionPlan is the full classified diff.
type EvolutionPlan struct {
	Steps []EvolutionStep
}

// Lightweight reports whether the whole evolution needs no revalidation.
func (p *EvolutionPlan) Lightweight() bool {
	for _, s := range p.Steps {
		if s.Cost != CostNone {
			return false
		}
	}
	return true
}

// ContentClasses returns the union of classes needing content rechecks.
func (p *EvolutionPlan) ContentClasses() []string {
	set := make(map[string]struct{})
	for _, s := range p.Steps {
		if s.Cost == CostContent {
			for _, c := range s.Classes {
				set[c] = struct{}{}
			}
		}
	}
	return sortedKeys(set)
}

// FullContent reports whether some change (e.g. an attribute retyping)
// affects entries regardless of class, forcing a whole-instance content
// recheck.
func (p *EvolutionPlan) FullContent() bool {
	for _, s := range p.Steps {
		if s.Cost == CostContent && len(s.Classes) == 0 {
			return true
		}
	}
	return false
}

// StructureElements returns the structure elements needing evaluation.
func (p *EvolutionPlan) StructureElements() []Element {
	var out []Element
	for _, s := range p.Steps {
		if s.Cost == CostStructure && s.Element != nil {
			out = append(out, s.Element)
		}
	}
	return out
}

func (p *EvolutionPlan) String() string {
	if len(p.Steps) == 0 {
		return "no schema changes"
	}
	var b strings.Builder
	for _, s := range p.Steps {
		fmt.Fprintf(&b, "%-16s %s\n", s.Cost, s.Description)
		if s.Derivation != "" {
			pad := strings.Repeat(" ", 19)
			b.WriteString(pad + strings.ReplaceAll(strings.TrimSuffix(s.Derivation, "\n"), "\n", "\n"+pad) + "\n")
		}
	}
	return b.String()
}

// PlanEvolution diffs two schemas and classifies every change.
func PlanEvolution(old, new *Schema) *EvolutionPlan {
	p := &EvolutionPlan{}
	add := func(cost EvolutionCost, desc string, classes []string, el Element) {
		p.Steps = append(p.Steps, EvolutionStep{Description: desc, Cost: cost, Classes: classes, Element: el})
	}

	// --- Class schema -------------------------------------------------
	oldCores := toSet(old.Classes.CoreClasses())
	newCores := toSet(new.Classes.CoreClasses())
	for _, c := range new.Classes.CoreClasses() {
		if _, ok := oldCores[c]; !ok {
			add(CostNone, fmt.Sprintf("new core class %s (no existing entries belong to it)", c), nil, nil)
		}
	}
	for _, c := range old.Classes.CoreClasses() {
		if _, ok := newCores[c]; !ok {
			// Entries of a removed class become unknown-class violators.
			add(CostContent, fmt.Sprintf("core class %s removed", c), []string{c}, nil)
		}
	}
	for _, c := range new.Classes.CoreClasses() {
		if _, ok := oldCores[c]; !ok {
			continue
		}
		os, _ := old.Classes.Superclass(c)
		ns, _ := new.Classes.Superclass(c)
		if os != ns {
			// The superclass chain of c (and of all its subclasses)
			// changed; their entries must satisfy the new chain.
			affected := append([]string{c}, coreDescendants(new.Classes, c)...)
			add(CostContent, fmt.Sprintf("class %s moved from %s to %s", c, os, ns), affected, nil)
		}
	}
	for _, x := range new.Classes.AuxClasses() {
		if !old.Classes.IsAux(x) {
			add(CostNone, fmt.Sprintf("new auxiliary class %s", x), nil, nil)
		}
	}
	for _, x := range old.Classes.AuxClasses() {
		if !new.Classes.IsAux(x) {
			// Entries carrying the removed aux become unknown-class.
			add(CostContent, fmt.Sprintf("auxiliary class %s removed", x), []string{x}, nil)
		}
	}
	for _, c := range new.Classes.CoreClasses() {
		oldAux := toSet(old.Classes.AuxesOf(c))
		for _, x := range new.Classes.AuxesOf(c) {
			if _, ok := oldAux[x]; !ok {
				// The Section 6.2 example: "adding a new auxiliary object
				// class to the auxiliary object classes associated with a
				// core object class is extremely lightweight".
				add(CostNone, fmt.Sprintf("class %s now allows auxiliary %s", c, x), nil, nil)
			}
		}
		newAux := toSet(new.Classes.AuxesOf(c))
		for _, x := range old.Classes.AuxesOf(c) {
			if _, ok := newAux[x]; !ok {
				add(CostContent, fmt.Sprintf("class %s no longer allows auxiliary %s", c, x), []string{c}, nil)
			}
		}
	}

	// Every class-schema difference added a step above.
	sameClasses := len(p.Steps) == 0

	// --- Attribute typing (τ) -------------------------------------------
	if old.Registry != nil && new.Registry != nil {
		oldAttrs := toSet(old.Registry.Attrs())
		for _, a := range sortedKeys(toSet(new.Registry.Attrs())) {
			_, existed := oldAttrs[a]
			switch {
			case !existed && a != dirtree.AttrObjectClass:
				// A fresh declaration may retype values that previously
				// defaulted to string; any entry could carry them.
				add(CostContent, fmt.Sprintf("attribute %s newly declared as %s", a, new.Registry.Type(a)), nil, nil)
			case existed && old.Registry.Type(a) != new.Registry.Type(a):
				add(CostContent, fmt.Sprintf("attribute %s retyped %s -> %s", a, old.Registry.Type(a), new.Registry.Type(a)), nil, nil)
			case existed && !old.Registry.SingleValued(a) && new.Registry.SingleValued(a):
				add(CostContent, fmt.Sprintf("attribute %s became single-valued", a), nil, nil)
			case existed && old.Registry.SingleValued(a) && !new.Registry.SingleValued(a):
				add(CostNone, fmt.Sprintf("attribute %s no longer single-valued", a), nil, nil)
			}
		}
	}

	// --- Keys (Section 6.1) ----------------------------------------------
	oldKeys := toSet(old.Keys())
	for _, k := range new.Keys() {
		if _, ok := oldKeys[k]; !ok {
			// Existing values may already collide; scan everything.
			add(CostContent, fmt.Sprintf("attribute %s became a key", k), nil, nil)
		}
	}
	newKeys := toSet(new.Keys())
	for _, k := range old.Keys() {
		if _, ok := newKeys[k]; !ok {
			add(CostNone, fmt.Sprintf("attribute %s is no longer a key", k), nil, nil)
		}
	}

	// --- Attribute schema ---------------------------------------------
	classes := sortedKeys(toSet(append(old.Attrs.Classes(), new.Attrs.Classes()...)))
	for _, c := range classes {
		oldReq, newReq := toSet(old.Attrs.Required(c)), toSet(new.Attrs.Required(c))
		oldAll, newAll := toSet(old.Attrs.Allowed(c)), toSet(new.Attrs.Allowed(c))
		for _, a := range new.Attrs.Required(c) {
			if _, ok := oldReq[a]; !ok {
				add(CostContent, fmt.Sprintf("class %s now requires attribute %s", c, a), []string{c}, nil)
			}
		}
		for _, a := range old.Attrs.Required(c) {
			if _, ok := newReq[a]; !ok {
				if _, stillAllowed := newAll[a]; stillAllowed {
					add(CostNone, fmt.Sprintf("class %s no longer requires attribute %s", c, a), nil, nil)
				}
			}
		}
		for _, a := range new.Attrs.Allowed(c) {
			if _, ok := oldAll[a]; !ok {
				// The Section 6.2 example: "adding a new allowed attribute
				// to an object class ... involving no modifications to
				// existing directory entries".
				add(CostNone, fmt.Sprintf("class %s now allows attribute %s", c, a), nil, nil)
			}
		}
		for _, a := range old.Attrs.Allowed(c) {
			if _, ok := newAll[a]; !ok {
				add(CostContent, fmt.Sprintf("class %s no longer allows attribute %s", c, a), []string{c}, nil)
			}
		}
	}

	// --- Structure schema ----------------------------------------------
	// A new element the old schema's closure derives holds on every
	// old-legal instance (Theorem 5.1), so it needs no check. The closure
	// depends on the class schema, so this applies only when that is
	// unchanged.
	implied := func(Element) string { return "" }
	if sameClasses {
		implied = Infer(old).Explain
	}
	for _, el := range new.Structure.elements() {
		if old.Structure.has(el) {
			continue
		}
		desc := "new structure element " + el.ElementString()
		if why := implied(el); why != "" {
			p.Steps = append(p.Steps, EvolutionStep{Description: desc + ", implied by the old schema",
				Cost: CostNone, Element: el, Derivation: why})
		} else {
			add(CostStructure, desc, nil, el)
		}
	}
	for _, el := range old.Structure.elements() {
		if !new.Structure.has(el) {
			add(CostNone, "structure element "+el.ElementString()+" dropped", nil, nil)
		}
	}

	sort.SliceStable(p.Steps, func(i, j int) bool { return p.Steps[i].Cost < p.Steps[j].Cost })
	return p
}

// CheckEvolution verifies that an instance known to be legal under the
// plan's old schema is legal under the new one, running only the checks
// the plan demands. The verdict equals a full Check against the new
// schema for such instances.
func CheckEvolution(new *Schema, d *dirtree.Directory, plan *EvolutionPlan) *Report {
	r := &Report{}
	checker := NewChecker(new)

	if plan.FullContent() {
		r.Merge(checker.CheckContent(d))
		r.Merge(checker.CheckKeys(d))
	} else if classes := plan.ContentClasses(); len(classes) > 0 {
		seen := make(map[int]struct{})
		for _, c := range classes {
			for _, e := range d.ClassEntries(c) {
				if _, dup := seen[e.ID()]; dup {
					continue
				}
				seen[e.ID()] = struct{}{}
				checker.checkEntry(checker.memoFor(e.ClassSet()), e, r)
			}
		}
	}

	if els := plan.StructureElements(); len(els) > 0 {
		for _, el := range els {
			if !Satisfies(d, el) {
				kind := ViolationRequiredRel
				switch el.(type) {
				case RequiredClass:
					kind = ViolationMissingClass
				case ForbiddenRel:
					kind = ViolationForbiddenRel
				}
				r.Add(Violation{Kind: kind, Element: el,
					Detail: "instance violates the newly added schema element"})
			}
		}
	}
	return r
}

func toSet(xs []string) map[string]struct{} {
	out := make(map[string]struct{}, len(xs))
	for _, x := range xs {
		out[x] = struct{}{}
	}
	return out
}

// coreDescendants returns every core class below c in the hierarchy.
func coreDescendants(cs *ClassSchema, c string) []string {
	var out []string
	var walk func(x string)
	walk = func(x string) {
		for _, sub := range cs.Subclasses(x) {
			out = append(out, sub)
			walk(sub)
		}
	}
	walk(c)
	return out
}
