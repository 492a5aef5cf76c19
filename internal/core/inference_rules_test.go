package core

import (
	"strings"
	"testing"
)

// documentedRules is the rule-tag universe promised by the inference.go
// documentation. Derivations must never cite anything outside it.
var documentedRules = map[string]bool{
	"given": true,
	// Figure 6 (cycles).
	"N": true, "P": true, "T": true, "L": true, "S": true, "G": true, "E": true,
	// Figure 7 (contradictions).
	"PT": true, "FW": true, "FS": true, "FL": true, "DC": true, "PH": true,
	"AH": true, "U": true, "MP": true, "PA": true, "AA": true, "RT": true,
	"LT": true, "DPD": true,
	// Case-analysis extensions.
	"SI": true, "SD": true, "ST": true, "SR": true, "SF": true, "SE": true,
	"AB1": true, "AB2": true, "AB3": true, "AO1": true, "AO2": true,
	"AO3": true, "AO4": true, "SW": true, "BI": true, "BB2": true,
	"BO1": true, "BO2": true, "BO3": true, "BO4": true, "WS": true,
	// Feasibility passes.
	"CHAIN": true, "PCH": true,
}

// TestDerivationRulesAreDocumented extracts every [rule] tag appearing in
// the inconsistency derivations of the taxonomy and hard-case schemas
// and checks each against the documented universe.
func TestDerivationRulesAreDocumented(t *testing.T) {
	schemas := []*Schema{}
	// The taxonomy cases.
	s1 := flatSchema(t, "c1", "c2")
	s1.Structure.RequireClass("c1")
	s1.Structure.RequireRel("c1", AxisChild, "c2")
	s1.Structure.RequireRel("c2", AxisDesc, "c1")
	schemas = append(schemas, s1)
	for _, hc := range hardCaseSchemas(t) {
		schemas = append(schemas, hc)
	}
	for i, s := range schemas {
		in := Infer(s)
		if !in.Inconsistent() {
			t.Fatalf("schema %d should be inconsistent", i)
		}
		exp := in.ExplainInconsistency()
		for _, tag := range ruleTags(exp) {
			if !documentedRules[tag] {
				t.Errorf("schema %d derivation cites undocumented rule %q:\n%s", i, tag, exp)
			}
		}
	}
}

// hardCaseSchemas rebuilds the extension-isolating schemas without
// importing workload (which would cycle with core).
func hardCaseSchemas(t testing.TB) []*Schema {
	var out []*Schema
	for _, s := range extensionSchemas(t) {
		out = append(out, s)
	}
	return out
}

func ruleTags(explanation string) []string {
	var out []string
	for i := 0; i < len(explanation); i++ {
		if explanation[i] != '[' {
			continue
		}
		j := strings.IndexByte(explanation[i:], ']')
		if j < 0 {
			break
		}
		out = append(out, explanation[i+1:i+j])
		i += j
	}
	return out
}

// TestDerivedElementsAreSatisfiableElements: the closure never emits a
// malformed element (axes in range, class names known or ∅).
func TestDerivedElementsWellFormed(t *testing.T) {
	s := whitePagesSchema(t)
	in := Infer(s)
	known := map[string]bool{ClassNone: true}
	for _, c := range s.Classes.CoreClasses() {
		known[c] = true
	}
	for _, el := range in.Derived() {
		switch e := el.(type) {
		case RequiredClass:
			if !known[e.Class] {
				t.Errorf("derived element over unknown class: %v", e)
			}
		case RequiredRel:
			if !known[e.Source] || !known[e.Target] || e.Axis < AxisChild || e.Axis > AxisAnc {
				t.Errorf("malformed derived rel: %v", e)
			}
		case ForbiddenRel:
			if !known[e.Upper] || !known[e.Lower] || !e.Axis.Downward() {
				t.Errorf("malformed derived forb: %v", e)
			}
		}
	}
}
