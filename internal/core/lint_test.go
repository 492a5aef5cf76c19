package core

import (
	"strings"
	"testing"
)

func findingKinds(fs []LintFinding) map[string][]string {
	out := make(map[string][]string)
	for _, f := range fs {
		out[f.Kind] = append(out[f.Kind], f.Subject)
	}
	return out
}

// TestLintWhitePagesRedundancy documents a real property of the paper's
// own running schema: two of its required classes are derivable from the
// rest — orgUnit⇓ plus orgUnit →pa orgGroup and orgGroup →de person
// already force person entries to exist, and person →an organization
// then forces an organization. The linter finds exactly those, and
// nothing else.
func TestLintWhitePagesRedundancy(t *testing.T) {
	s := whitePagesSchema(t)
	kinds := findingKinds(Lint(s))
	if got := kinds["redundant-element"]; len(got) != 2 ||
		got[0] != "organization⇓" || got[1] != "person⇓" {
		t.Fatalf("redundant elements = %v, want [organization⇓ person⇓]", got)
	}
	for _, k := range []string{"unsatisfiable-class", "orphan-aux", "unused-class"} {
		if len(kinds[k]) != 0 {
			t.Errorf("unexpected %s findings: %v", k, kinds[k])
		}
	}
}

func TestLintUnsatisfiableClass(t *testing.T) {
	s := whitePagesSchema(t)
	if err := s.Classes.AddCore("ghost", ClassTop); err != nil {
		t.Fatal(err)
	}
	s.Structure.RequireRel("ghost", AxisDesc, "ghost")
	kinds := findingKinds(Lint(s))
	if len(kinds["unsatisfiable-class"]) != 1 || kinds["unsatisfiable-class"][0] != "ghost" {
		t.Errorf("unsatisfiable finding missing: %v", kinds)
	}
}

func TestLintOrphanAux(t *testing.T) {
	s := whitePagesSchema(t)
	if err := s.Classes.AddAux("lonely"); err != nil {
		t.Fatal(err)
	}
	kinds := findingKinds(Lint(s))
	if len(kinds["orphan-aux"]) != 1 || kinds["orphan-aux"][0] != "lonely" {
		t.Errorf("orphan-aux finding missing: %v", kinds)
	}
}

func TestLintUnusedClass(t *testing.T) {
	s := whitePagesSchema(t)
	if err := s.Classes.AddCore("decor", ClassTop); err != nil {
		t.Fatal(err)
	}
	kinds := findingKinds(Lint(s))
	if len(kinds["unused-class"]) != 1 || kinds["unused-class"][0] != "decor" {
		t.Errorf("unused-class finding missing: %v", kinds)
	}
}

func TestLintRedundantElements(t *testing.T) {
	s := whitePagesSchema(t)
	// researcher →de person is implied: researcher ⇒ person and... no —
	// build real redundancies instead:
	// 1. A child requirement makes the descendant requirement redundant.
	s.Structure.RequireRel("organization", AxisChild, "orgUnit")
	s.Structure.RequireRel("organization", AxisDesc, "orgUnit") // implied by P
	// 2. Requiring a subclass makes requiring the superclass redundant
	//    (rule S: researcher inherits orgGroup →de person... use c⇓):
	s.Structure.RequireClass("researcher") // not in Cr yet
	// person⇓ already in Cr and researcher⇓ implies it (rule E).

	reds := droppedElements(s)
	have := make(map[string]bool)
	for _, el := range reds {
		have[el.ElementString()] = true
	}
	if !have["organization →de orgUnit"] {
		t.Errorf("implied descendant requirement not flagged: %v", reds)
	}
	if !have["person⇓"] {
		t.Errorf("implied required class not flagged: %v", reds)
	}
	// The child requirement itself is NOT redundant.
	if have["organization →ch orgUnit"] {
		t.Errorf("non-redundant element flagged")
	}
}

func TestLintRedundantForbidden(t *testing.T) {
	s := whitePagesSchema(t)
	// forb(person, de, X) is implied for every X by FL from
	// person ⇥ch top.
	if err := s.Structure.ForbidRel("person", AxisDesc, "orgUnit"); err != nil {
		t.Fatal(err)
	}
	reds := droppedElements(s)
	found := false
	for _, el := range reds {
		if el.ElementString() == "person ⇥de orgUnit" {
			found = true
		}
	}
	if !found {
		t.Errorf("implied forbidden relationship not flagged: %v", reds)
	}
}

// droppedElements returns the structure elements Cover drops.
func droppedElements(s *Schema) []Element {
	var out []Element
	_, dropped := Cover(s)
	for _, el := range dropped {
		out = append(out, el.Element)
	}
	return out
}

func TestImplies(t *testing.T) {
	s := whitePagesSchema(t)
	for _, tc := range []struct {
		el   Element
		want bool
	}{
		{RequiredClass{Class: "person"}, true},
		{RequiredRel{Source: "orgUnit", Axis: AxisDesc, Target: "person"}, true}, // S
		{RequiredRel{Source: "orgGroup", Axis: AxisDesc, Target: "person"}, true},
		{ForbiddenRel{Upper: "person", Axis: AxisDesc, Lower: "orgUnit"}, true}, // FL, FS
		{RequiredRel{Source: "orgUnit", Axis: AxisDesc, Target: "researcher"}, false},
		{RequiredClass{Class: "staffMember"}, false},
		{Subclass{Sub: "person", Super: ClassTop}, false},
	} {
		if got := Implies(s, tc.el); got != tc.want {
			t.Errorf("Implies(whitepages, %s) = %v, want %v", tc.el.ElementString(), got, tc.want)
		}
	}
}

// TestCoverWhitePages: the paper's running schema keeps orgUnit⇓ and its
// four relationships; orgUnit⇓ with orgUnit ⊑ orgGroup, orgGroup →de
// person and person →an organization implies the other two c⇓.
func TestCoverWhitePages(t *testing.T) {
	s := whitePagesSchema(t)
	keptEls, dropped := Cover(s)
	var kept []string
	for _, el := range keptEls {
		kept = append(kept, el.ElementString())
	}
	want := []string{"orgUnit⇓", "orgGroup →de person", "orgUnit →pa orgGroup",
		"person →an organization", "person ⇥ch top"}
	if strings.Join(kept, "; ") != strings.Join(want, "; ") {
		t.Errorf("kept %q, want %q", kept, want)
	}
	if len(dropped) != 2 {
		t.Fatalf("dropped %v, want organization⇓ and person⇓", dropped)
	}
	for i, w := range []struct{ el, cites string }{
		{"organization⇓", "person →an organization [given]"},
		{"person⇓", "orgGroup →de person [given]"},
	} {
		got := dropped[i]
		if got.Element.ElementString() != w.el || !strings.Contains(got.Derivation, w.cites) ||
			!strings.Contains(got.Derivation, "orgUnit⇓ [given]") {
			t.Errorf("dropped[%d] = %s derived by\n%s\nwant %s citing orgUnit⇓ and %s",
				i, got.Element.ElementString(), got.Derivation, w.el, w.cites)
		}
	}
}

// TestCoverMutualDerivation: a⇓ and b⇓ imply each other through a →ch b
// and b →pa a. Each is redundant alone, but not both: the cover drops
// exactly one, and Lint reports that one.
func TestCoverMutualDerivation(t *testing.T) {
	s := flatSchema(t, "a", "b")
	s.Structure.RequireClass("a")
	s.Structure.RequireClass("b")
	s.Structure.RequireRel("a", AxisChild, "b")
	s.Structure.RequireRel("b", AxisParent, "a")
	if got := droppedElements(s); len(got) != 1 || got[0] != (RequiredClass{Class: "a"}) {
		t.Fatalf("dropped %v, want [a⇓]", got)
	}
	if got := findingKinds(Lint(s))["redundant-element"]; len(got) != 1 {
		t.Fatalf("redundant-element findings %v, want one", got)
	}
}

func TestLintFindingString(t *testing.T) {
	f := LintFinding{Kind: "k", Subject: "s", Detail: "d"}
	if got := f.String(); got == "" {
		t.Errorf("empty rendering")
	}
}
