package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"boundschema/internal/dirtree"
)

func TestEvolutionLightweightChanges(t *testing.T) {
	old := whitePagesSchema(t)
	new := old.Clone()
	// The two Section 6.2 examples plus friends.
	new.Attrs.Allow("person", "homePage")
	if err := new.Classes.AddAux("pilot"); err != nil {
		t.Fatal(err)
	}
	if err := new.Classes.AllowAux("staffMember", "pilot"); err != nil {
		t.Fatal(err)
	}
	if err := new.Classes.AddCore("contractor", "person"); err != nil {
		t.Fatal(err)
	}

	plan := PlanEvolution(old, new)
	if !plan.Lightweight() {
		t.Fatalf("all changes should be lightweight:\n%s", plan)
	}
	d := whitePagesInstance(t, old)
	if r := CheckEvolution(new, d, plan); !r.Legal() {
		t.Fatalf("lightweight evolution flagged violations:\n%s", r)
	}
	// And indeed the instance is fully legal under the new schema.
	if r := NewChecker(new).Check(d); !r.Legal() {
		t.Fatalf("full check disagrees:\n%s", r)
	}
}

func TestEvolutionContentRecheck(t *testing.T) {
	old := whitePagesSchema(t)
	new := old.Clone()
	new.Attrs.Require("person", "uid") // Figure 1 entries lack a uid attribute
	plan := PlanEvolution(old, new)
	if plan.Lightweight() {
		t.Fatalf("new required attribute must not be lightweight")
	}
	if got := plan.ContentClasses(); len(got) != 1 || got[0] != "person" {
		t.Fatalf("content classes = %v", got)
	}
	d := whitePagesInstance(t, old)
	r := CheckEvolution(new, d, plan)
	if got := len(r.ByKind(ViolationMissingAttr)); got != 3 { // three persons
		t.Fatalf("missing-attr violations = %d, want 3:\n%s", got, r)
	}
}

func TestEvolutionStructureCheck(t *testing.T) {
	old := whitePagesSchema(t)
	new := old.Clone()
	new.Structure.RequireRel("orgUnit", AxisDesc, "researcher")
	new.Structure.RequireClass("staffMember")
	plan := PlanEvolution(old, new)
	if got := len(plan.StructureElements()); got != 2 {
		t.Fatalf("structure elements = %d, want 2\n%s", got, plan)
	}
	d := whitePagesInstance(t, old)
	r := CheckEvolution(new, d, plan)
	// attLabs's direct researcher requirement fails for no unit? Every
	// orgUnit needs a researcher descendant: attLabs has laks/suciu;
	// databases has them too — satisfied. staffMember exists (armstrong).
	if !r.Legal() {
		t.Fatalf("evolution should pass:\n%s", r)
	}
	// Now a violating addition.
	new2 := old.Clone()
	new2.Structure.RequireClass("consultant")
	plan2 := PlanEvolution(old, new2)
	r2 := CheckEvolution(new2, d, plan2)
	if len(r2.ByKind(ViolationMissingClass)) != 1 {
		t.Fatalf("missing consultant not caught:\n%s", r2)
	}
}

func TestEvolutionRegistryChanges(t *testing.T) {
	old := whitePagesSchema(t)
	d := whitePagesInstance(t, old)

	new := old.Clone()
	reg := dirtree.NewRegistry()
	for _, a := range old.Registry.Attrs() {
		reg.Declare(a, old.Registry.Type(a))
	}
	reg.DeclareSingle("mail", dirtree.String("").Type()) // laks has two mails
	new.Registry = reg
	plan := PlanEvolution(old, new)
	if !plan.FullContent() {
		t.Fatalf("single-valued change must force a full content recheck:\n%s", plan)
	}
	r := CheckEvolution(new, d, plan)
	if len(r.ByKind(ViolationTyping)) == 0 {
		t.Fatalf("double mail not caught:\n%s", r)
	}
}

func TestEvolutionRemovedClass(t *testing.T) {
	old := whitePagesSchema(t)
	d := whitePagesInstance(t, old)
	new := NewSchema()
	// Rebuild the schema without the researcher class.
	for _, c := range old.Classes.CoreClasses() {
		if c == ClassTop || c == "researcher" {
			continue
		}
		p, _ := old.Classes.Superclass(c)
		if err := new.Classes.AddCore(c, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range old.Classes.AuxClasses() {
		if err := new.Classes.AddAux(x); err != nil {
			t.Fatal(err)
		}
	}
	new.Attrs = old.Attrs.Clone()
	new.Registry = old.Registry
	plan := PlanEvolution(old, new)
	if plan.Lightweight() {
		t.Fatalf("class removal must not be lightweight")
	}
	r := CheckEvolution(new, d, plan)
	if len(r.ByKind(ViolationUnknownClass)) == 0 {
		t.Fatalf("entries of removed class not caught:\n%s", r)
	}
}

func TestEvolutionPlanString(t *testing.T) {
	old := whitePagesSchema(t)
	if got := PlanEvolution(old, old).String(); got != "no schema changes" {
		t.Errorf("identity plan = %q", got)
	}
	new := old.Clone()
	new.Attrs.Allow("person", "homePage")
	s := PlanEvolution(old, new).String()
	if !strings.Contains(s, "lightweight") || !strings.Contains(s, "homePage") {
		t.Errorf("plan rendering:\n%s", s)
	}
}

// addStructureElement adds a derived element to ss; elements naming ∅
// are skipped, since no schema may state them.
func addStructureElement(ss *StructureSchema, el Element) {
	switch e := el.(type) {
	case RequiredClass:
		if e.Class != classNone {
			ss.RequireClass(e.Class)
		}
	case RequiredRel:
		if e.Source != classNone && e.Target != classNone {
			ss.RequireRel(e.Source, e.Axis, e.Target)
		}
	case ForbiddenRel:
		if e.Upper != classNone && e.Lower != classNone {
			_ = ss.ForbidRel(e.Upper, e.Axis, e.Lower)
		}
	}
}

// TestEvolutionImpliedElement: a new element the old schema's closure
// derives holds on every old-legal instance (Theorem 5.1), so the plan
// charges nothing for it and shows the derivation, as long as the class
// schema is unchanged.
func TestEvolutionImpliedElement(t *testing.T) {
	old := whitePagesSchema(t)
	new := old.Clone()
	new.Structure.RequireRel("orgUnit", AxisDesc, "person")
	plan := PlanEvolution(old, new)
	if !plan.Lightweight() || len(plan.Steps) != 1 {
		t.Fatalf("orgUnit →de person should plan as one lightweight step:\n%s", plan)
	}
	want := "orgUnit →de person [S]\n  orgGroup →de person [given]\n"
	if got := plan.Steps[0].Derivation; got != want {
		t.Errorf("derivation:\n%s\nwant:\n%s", got, want)
	}
	if s := plan.String(); !strings.Contains(s, "lightweight") || !strings.Contains(s, "[S]") {
		t.Errorf("plan rendering omits the derivation:\n%s", s)
	}

	// A class-schema change as well: the old closure is not consulted.
	if err := new.Classes.AddCore("contractor", "person"); err != nil {
		t.Fatal(err)
	}
	plan = PlanEvolution(old, new)
	if els := plan.StructureElements(); len(els) != 1 || els[0] != (RequiredRel{Source: "orgUnit", Axis: AxisDesc, Target: "person"}) {
		t.Fatalf("with a new class, orgUnit →de person should need a structure check:\n%s", plan)
	}
}

// TestPlanEvolutionDeterministic: the plan lists dropped elements in the
// schema's sorted order, so repeated plans render identically.
func TestPlanEvolutionDeterministic(t *testing.T) {
	old := whitePagesSchema(t)
	new := old.Clone()
	new.Structure = newStructureSchema()
	for _, el := range old.Structure.elements() {
		if _, ok := el.(RequiredRel); !ok {
			addStructureElement(new.Structure, el)
		}
	}
	first := PlanEvolution(old, new).String()
	if strings.Count(first, "dropped") != 3 {
		t.Fatalf("plan should drop the three required relationships:\n%s", first)
	}
	for i := 0; i < 50; i++ {
		if got := PlanEvolution(old, new).String(); got != first {
			t.Fatalf("plan %d renders differently:\n%s\nfirst:\n%s", i, got, first)
		}
	}
}

// TestQuickEvolutionAgreesWithFullCheck: for instances legal under the
// old schema and random schema edits, the planned checks must reach the
// same verdict as a full check under the new schema.
func TestQuickEvolutionAgreesWithFullCheck(t *testing.T) {
	f := func(seed int64, grow uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		old := whitePagesSchema(t)
		d := whitePagesInstance(t, old)
		growLegal(t, old, d, rng, int(grow%20))

		new := old.Clone()
		// Apply 1-3 random edits.
		cores := new.Classes.CoreClasses()
		attrs := []string{"name", "mail", "uid", "room", "uri"}
		derived := Infer(old).Derived()
		for k := 0; k < rng.Intn(3)+1; k++ {
			c := cores[rng.Intn(len(cores))]
			switch rng.Intn(7) {
			case 0:
				new.Attrs.Allow(c, attrs[rng.Intn(len(attrs))])
			case 1:
				new.Attrs.Require(c, attrs[rng.Intn(len(attrs))])
			case 2:
				new.Structure.RequireClass(c)
			case 3:
				new.Structure.RequireRel(c, Axis(rng.Intn(4)), cores[rng.Intn(len(cores))])
			case 4:
				_ = new.Structure.ForbidRel(c, Axis(rng.Intn(2)), cores[rng.Intn(len(cores))])
			case 5:
				// An element the old closure derives: planned lightweight.
				addStructureElement(new.Structure, derived[rng.Intn(len(derived))])
			default:
				// no-op edit
			}
		}
		plan := PlanEvolution(old, new)
		planVerdict := CheckEvolution(new, d, plan).Legal()
		fullVerdict := NewChecker(new).Check(d).Legal()
		if planVerdict != fullVerdict {
			t.Logf("verdicts differ (plan=%v full=%v):\n%s", planVerdict, fullVerdict, plan)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
