package core

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"boundschema/internal/dirtree"
)

// flatSchema builds a schema whose core classes all hang directly off
// top, for structure-only consistency cases.
func flatSchema(t testing.TB, classes ...string) *Schema {
	s := NewSchema()
	for _, c := range classes {
		if err := s.Classes.AddCore(c, ClassTop); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func requireConsistent(t *testing.T, s *Schema, want bool) ConsistencyResult {
	t.Helper()
	res := CheckConsistency(s)
	if res.Consistent != want {
		t.Errorf("Consistent = %v, want %v\nexplanation:\n%s", res.Consistent, want, res.Explanation)
	}
	if s.Consistent() != res.Consistent {
		t.Errorf("Schema.Consistent disagrees with CheckConsistency")
	}
	return res
}

func TestWhitePagesSchemaConsistent(t *testing.T) {
	s := whitePagesSchema(t)
	res := requireConsistent(t, s, true)
	if len(res.Unsatisfiable) != 0 {
		t.Errorf("unexpected unsatisfiable classes: %v", res.Unsatisfiable)
	}
	d, err := Materialize(s)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if r := NewChecker(s).Check(d); !r.Legal() {
		t.Fatalf("witness illegal:\n%s\n%s", r, d)
	}
	if d.Len() == 0 {
		t.Fatalf("witness should be non-empty (required classes exist)")
	}
}

// TestPaperCycleExample is the Section 5.1 pure-structure cycle: c1⇓,
// c1 →ch c2, c2 →de c1 admits no finite instance.
func TestPaperCycleExample(t *testing.T) {
	s := flatSchema(t, "c1", "c2")
	s.Structure.RequireClass("c1")
	s.Structure.RequireRel("c1", AxisChild, "c2")
	s.Structure.RequireRel("c2", AxisDesc, "c1")
	res := requireConsistent(t, s, false)
	if !strings.Contains(res.Explanation, "∅⇓") {
		t.Errorf("explanation should derive ∅⇓:\n%s", res.Explanation)
	}
	if _, err := Materialize(s); err == nil {
		t.Errorf("Materialize must fail on an inconsistent schema")
	}
}

// TestPaperCycleFootnote: the same two relationships without c1⇓ are
// satisfiable (footnote 3: an instance without c1 or c2 entries).
func TestPaperCycleFootnote(t *testing.T) {
	s := flatSchema(t, "c1", "c2")
	s.Structure.RequireRel("c1", AxisChild, "c2")
	s.Structure.RequireRel("c2", AxisDesc, "c1")
	requireConsistent(t, s, true)
	d, err := Materialize(s)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if d.Len() != 0 {
		t.Errorf("witness should be the empty instance, got %d entries", d.Len())
	}
}

// TestHierarchyInducedCycle is the Section 5.1 interaction: no cycle
// among the explicit edges, but the class hierarchy closes one.
func TestHierarchyInducedCycle(t *testing.T) {
	s := NewSchema()
	for _, pair := range [][2]string{
		{"c2", ClassTop}, {"c1", "c2"}, // c1 ⇒ c2
		{"c4", ClassTop}, {"c3", "c4"}, // c3 ⇒ c4
		{"c5", "c1"}, // c5 ⇒ c1
	} {
		if err := s.Classes.AddCore(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	s.Structure.RequireClass("c1")
	s.Structure.RequireRel("c2", AxisChild, "c3") // inherited by c1
	s.Structure.RequireRel("c4", AxisDesc, "c5")  // inherited by c3, target lifts to c1
	requireConsistent(t, s, false)

	// Dropping the subclass link c5 ⇒ c1 breaks the cycle.
	s2 := NewSchema()
	for _, pair := range [][2]string{
		{"c2", ClassTop}, {"c1", "c2"},
		{"c4", ClassTop}, {"c3", "c4"},
		{"c5", ClassTop},
	} {
		if err := s2.Classes.AddCore(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	s2.Structure.RequireClass("c1")
	s2.Structure.RequireRel("c2", AxisChild, "c3")
	s2.Structure.RequireRel("c4", AxisDesc, "c5")
	requireConsistent(t, s2, true)
	if _, err := Materialize(s2); err != nil {
		t.Errorf("Materialize: %v", err)
	}
}

// TestPaperContradictionExample is the Section 5.2 direct contradiction:
// c1⇓, c1 →de c2, c1 ⇥de c2.
func TestPaperContradictionExample(t *testing.T) {
	s := flatSchema(t, "c1", "c2")
	s.Structure.RequireClass("c1")
	s.Structure.RequireRel("c1", AxisDesc, "c2")
	if err := s.Structure.ForbidRel("c1", AxisDesc, "c2"); err != nil {
		t.Fatal(err)
	}
	requireConsistent(t, s, false)
}

// TestHierarchyInducedContradiction: the requirement and the prohibition
// meet only through the class hierarchy.
func TestHierarchyInducedContradiction(t *testing.T) {
	s := NewSchema()
	if err := s.Classes.AddCore("c3", ClassTop); err != nil {
		t.Fatal(err)
	}
	if err := s.Classes.AddCore("c2", "c3"); err != nil { // c2 ⇒ c3
		t.Fatal(err)
	}
	if err := s.Classes.AddCore("c1", ClassTop); err != nil {
		t.Fatal(err)
	}
	s.Structure.RequireClass("c1")
	s.Structure.RequireRel("c1", AxisChild, "c2")
	if err := s.Structure.ForbidRel("c1", AxisChild, "c3"); err != nil {
		t.Fatal(err)
	}
	requireConsistent(t, s, false)
}

// TestRuleCoverage drives each contradiction rule individually.
func TestRuleCoverage(t *testing.T) {
	t.Run("PT: descendant requirement vs childless class", func(t *testing.T) {
		s := flatSchema(t, "a", "b")
		s.Structure.RequireClass("a")
		s.Structure.RequireRel("a", AxisDesc, "b")
		if err := s.Structure.ForbidRel("a", AxisChild, ClassTop); err != nil {
			t.Fatal(err)
		}
		requireConsistent(t, s, false)
	})
	t.Run("PT-up: ancestor requirement vs rootedness", func(t *testing.T) {
		s := flatSchema(t, "a", "b")
		s.Structure.RequireClass("a")
		s.Structure.RequireRel("a", AxisAnc, "b")
		if err := s.Structure.ForbidRel(ClassTop, AxisChild, "a"); err != nil {
			t.Fatal(err)
		}
		requireConsistent(t, s, false)
	})
	t.Run("PH: required parent forbidden", func(t *testing.T) {
		s := flatSchema(t, "a", "p")
		s.Structure.RequireClass("a")
		s.Structure.RequireRel("a", AxisParent, "p")
		if err := s.Structure.ForbidRel("p", AxisChild, "a"); err != nil {
			t.Fatal(err)
		}
		requireConsistent(t, s, false)
	})
	t.Run("AH: required ancestor forbidden", func(t *testing.T) {
		s := flatSchema(t, "a", "b")
		s.Structure.RequireClass("a")
		s.Structure.RequireRel("a", AxisAnc, "b")
		if err := s.Structure.ForbidRel("b", AxisDesc, "a"); err != nil {
			t.Fatal(err)
		}
		requireConsistent(t, s, false)
	})
	t.Run("MP: disjoint required parents", func(t *testing.T) {
		s := flatSchema(t, "a", "p", "q")
		s.Structure.RequireClass("a")
		s.Structure.RequireRel("a", AxisParent, "p")
		s.Structure.RequireRel("a", AxisParent, "q")
		requireConsistent(t, s, false)
	})
	t.Run("MP: comparable required parents are fine", func(t *testing.T) {
		s := NewSchema()
		if err := s.Classes.AddCore("p", ClassTop); err != nil {
			t.Fatal(err)
		}
		if err := s.Classes.AddCore("q", "p"); err != nil {
			t.Fatal(err)
		}
		if err := s.Classes.AddCore("a", ClassTop); err != nil {
			t.Fatal(err)
		}
		s.Structure.RequireClass("a")
		s.Structure.RequireRel("a", AxisParent, "p")
		s.Structure.RequireRel("a", AxisParent, "q")
		requireConsistent(t, s, true)
		if _, err := Materialize(s); err != nil {
			t.Errorf("Materialize: %v", err)
		}
	})
	t.Run("PA: ancestor can neither merge with nor sit above the parent", func(t *testing.T) {
		s := flatSchema(t, "a", "p", "x")
		s.Structure.RequireClass("a")
		s.Structure.RequireRel("a", AxisParent, "p")
		s.Structure.RequireRel("a", AxisAnc, "x")
		if err := s.Structure.ForbidRel("x", AxisDesc, "p"); err != nil {
			t.Fatal(err)
		}
		requireConsistent(t, s, false)
	})
	t.Run("AA: two unmergeable unorderable ancestors", func(t *testing.T) {
		s := flatSchema(t, "a", "x", "y")
		s.Structure.RequireClass("a")
		s.Structure.RequireRel("a", AxisAnc, "x")
		s.Structure.RequireRel("a", AxisAnc, "y")
		if err := s.Structure.ForbidRel("x", AxisDesc, "y"); err != nil {
			t.Fatal(err)
		}
		if err := s.Structure.ForbidRel("y", AxisDesc, "x"); err != nil {
			t.Fatal(err)
		}
		requireConsistent(t, s, false)
	})
	t.Run("AA: orderable ancestors are fine", func(t *testing.T) {
		s := flatSchema(t, "a", "x", "y")
		s.Structure.RequireClass("a")
		s.Structure.RequireRel("a", AxisAnc, "x")
		s.Structure.RequireRel("a", AxisAnc, "y")
		if err := s.Structure.ForbidRel("x", AxisDesc, "y"); err != nil {
			t.Fatal(err) // y may not sit below x, but x below y is fine
		}
		requireConsistent(t, s, true)
		if _, err := Materialize(s); err != nil {
			t.Errorf("Materialize: %v", err)
		}
	})
	t.Run("U: requirement into an unsatisfiable class", func(t *testing.T) {
		s := flatSchema(t, "a", "b")
		s.Structure.RequireClass("a")
		s.Structure.RequireRel("a", AxisChild, "b")
		s.Structure.RequireRel("b", AxisDesc, "b") // b needs an infinite chain
		requireConsistent(t, s, false)
	})
	t.Run("L: self loop on ancestor axis", func(t *testing.T) {
		s := flatSchema(t, "a")
		s.Structure.RequireClass("a")
		s.Structure.RequireRel("a", AxisAnc, "a")
		requireConsistent(t, s, false)
	})
	t.Run("CHAIN: three-way forced-order cycle", func(t *testing.T) {
		s := flatSchema(t, "c", "x", "y", "z")
		s.Structure.RequireClass("c")
		s.Structure.RequireRel("c", AxisAnc, "x")
		s.Structure.RequireRel("c", AxisAnc, "y")
		s.Structure.RequireRel("c", AxisAnc, "z")
		// x may not sit above y, y not above z, z not above x: every
		// topmost choice is forbidden, though every pair is orderable.
		if err := s.Structure.ForbidRel("x", AxisDesc, "y"); err != nil {
			t.Fatal(err)
		}
		if err := s.Structure.ForbidRel("y", AxisDesc, "z"); err != nil {
			t.Fatal(err)
		}
		if err := s.Structure.ForbidRel("z", AxisDesc, "x"); err != nil {
			t.Fatal(err)
		}
		requireConsistent(t, s, false)
	})
	t.Run("CHAIN: acyclic forced order is fine", func(t *testing.T) {
		s := flatSchema(t, "c", "x", "y", "z")
		s.Structure.RequireClass("c")
		s.Structure.RequireRel("c", AxisAnc, "x")
		s.Structure.RequireRel("c", AxisAnc, "y")
		s.Structure.RequireRel("c", AxisAnc, "z")
		if err := s.Structure.ForbidRel("x", AxisDesc, "y"); err != nil {
			t.Fatal(err)
		}
		if err := s.Structure.ForbidRel("y", AxisDesc, "z"); err != nil {
			t.Fatal(err)
		}
		requireConsistent(t, s, true)
		if _, err := Materialize(s); err != nil {
			t.Errorf("Materialize: %v", err)
		}
	})
}

func TestUnsatisfiableButConsistent(t *testing.T) {
	s := flatSchema(t, "a", "b")
	s.Structure.RequireClass("b")
	s.Structure.RequireRel("a", AxisDesc, "a") // a is unsatisfiable
	res := requireConsistent(t, s, true)
	if len(res.Unsatisfiable) != 1 || res.Unsatisfiable[0] != "a" {
		t.Errorf("Unsatisfiable = %v, want [a]", res.Unsatisfiable)
	}
	d, err := Materialize(s)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if d.ClassCount("a") != 0 || d.ClassCount("b") == 0 {
		t.Errorf("witness class counts wrong:\n%s", d)
	}
}

func TestEmptySchemaConsistent(t *testing.T) {
	s := NewSchema()
	requireConsistent(t, s, true)
	d, err := Materialize(s)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if d.Len() != 0 {
		t.Errorf("empty schema witness should be empty")
	}
}

func TestExplainDerivation(t *testing.T) {
	s := flatSchema(t, "c1", "c2")
	s.Structure.RequireClass("c1")
	s.Structure.RequireRel("c1", AxisChild, "c2")
	s.Structure.RequireRel("c2", AxisDesc, "c1")
	in := Infer(s)
	if !in.inconsistent() {
		t.Fatal("expected inconsistency")
	}
	exp := in.explainInconsistency()
	for _, want := range []string{"∅⇓", "[given]", "c1 →ch c2"} {
		if !strings.Contains(exp, want) {
			t.Errorf("explanation missing %q:\n%s", want, exp)
		}
	}
	if in.explain(RequiredRel{Source: "zzz", Axis: AxisChild, Target: "c1"}) != "" {
		t.Errorf("Explain of underived element should be empty")
	}
	if id, ok := in.ids["c2"]; !ok || !in.has(fact{kind: factExists, a: id}) {
		t.Errorf("c2 must exist (c1⇓ and c1 →ch c2)")
	}
	if !in.unsatisfiable("c1") {
		t.Errorf("c1 should be unsatisfiable (via the cycle)")
	}
}

// TestSoundnessOnWitness: every element derived from a consistent schema
// must hold in the materialized witness (Theorem 5.1).
func TestSoundnessOnWitness(t *testing.T) {
	schemas := []*Schema{whitePagesSchema(t)}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		s := randomConsistencySchema(t, rng)
		if s.Consistent() {
			schemas = append(schemas, s)
		}
	}
	for i, s := range schemas {
		d, err := Materialize(s)
		if err != nil {
			t.Errorf("schema %d: Materialize: %v", i, err)
			continue
		}
		in := Infer(s)
		for _, el := range in.Derived() {
			if !satisfies(d, el) {
				t.Errorf("schema %d: derived element %s does not hold in the witness\n%s",
					i, el.ElementString(), d)
			}
		}
	}
}

// randomConsistencySchema builds a small random schema: a random core
// hierarchy plus random structure elements.
func randomConsistencySchema(t testing.TB, rng *rand.Rand) *Schema {
	s := NewSchema()
	n := rng.Intn(5) + 2
	names := make([]string, n)
	for i := range names {
		names[i] = "k" + strconv.Itoa(i)
		super := ClassTop
		if i > 0 && rng.Intn(2) == 0 {
			super = names[rng.Intn(i)]
		}
		if err := s.Classes.AddCore(names[i], super); err != nil {
			t.Fatal(err)
		}
	}
	pick := func() string { return names[rng.Intn(n)] }
	for i := 0; i < rng.Intn(6)+1; i++ {
		switch rng.Intn(4) {
		case 0:
			s.Structure.RequireClass(pick())
		case 1, 2:
			s.Structure.RequireRel(pick(), Axis(rng.Intn(4)), pick())
		default:
			_ = s.Structure.ForbidRel(pick(), Axis(rng.Intn(2)), pick())
		}
	}
	return s
}

// TestQuickConsistencyAgreesWithChase: the polynomial decision and the
// constructive chase must agree — whenever the closure finds no
// inconsistency, the chase must produce a legal witness. This is the
// mechanical completeness check for the reconstructed rule set.
func TestQuickConsistencyAgreesWithChase(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomConsistencySchema(t, rng)
		if !s.Consistent() {
			return true // soundness is covered by the brute-force test
		}
		d, err := Materialize(s)
		if err != nil {
			t.Logf("consistent schema failed to materialize: %v\nelements: %v", err, elementStrings(s))
			return false
		}
		return NewChecker(s).Check(d).Legal()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func elementStrings(s *Schema) []string {
	var out []string
	for _, el := range s.Elements() {
		out = append(out, el.ElementString())
	}
	return out
}

// TestQuickSoundnessByBruteForce: whenever a small legal instance exists
// (found by exhaustive search over tiny forests), the closure must not
// have derived ∅⇓ (Theorem 5.1 soundness).
func TestQuickSoundnessByBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomConsistencySchema(t, rng)
		if bruteForceHasModel(t, s, 3) && !s.Consistent() {
			res := CheckConsistency(s)
			t.Logf("closure wrongly inconsistent for %v:\n%s", elementStrings(s), res.Explanation)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// bruteForceHasModel exhaustively searches for a legal instance with at
// most maxN entries, where every entry's class set is the superclass
// chain of one core class.
func bruteForceHasModel(t testing.TB, s *Schema, maxN int) bool {
	cores := s.Classes.CoreClasses()
	checker := NewChecker(s)
	var try func(n int) bool
	try = func(n int) bool {
		// Enumerate parent vectors: parent[i] in {-1, 0..i-1}; and class
		// choices: one core class per node.
		parents := make([]int, n)
		classes := make([]int, n)
		var rec func(i int) bool
		rec = func(i int) bool {
			if i == n {
				d := dirtree.New(s.Registry)
				nodes := make([]*dirtree.Entry, n)
				for j := 0; j < n; j++ {
					cs := s.Classes.Superclasses(cores[classes[j]])
					var e *dirtree.Entry
					var err error
					if parents[j] == -1 {
						e, err = d.AddRoot("n="+strconv.Itoa(j), cs...)
					} else {
						e, err = d.AddChild(nodes[parents[j]], "n="+strconv.Itoa(j), cs...)
					}
					if err != nil {
						return false
					}
					nodes[j] = e
				}
				return checker.Legal(d)
			}
			for p := -1; p < i; p++ {
				parents[i] = p
				for c := range cores {
					classes[i] = c
					if rec(i + 1) {
						return true
					}
				}
			}
			return false
		}
		return rec(0)
	}
	for n := 0; n <= maxN; n++ {
		if try(n) {
			return true
		}
	}
	return false
}

// TestMaterializeFillsRequiredAttributes: witnesses must be content-legal
// including required attributes with typed values.
func TestMaterializeFillsRequiredAttributes(t *testing.T) {
	s := whitePagesSchema(t)
	s.Registry.Declare("grade", dirtree.TypeInt)
	s.Attrs.Require("person", "grade")
	d, err := Materialize(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range d.ClassEntries("person") {
		if !e.HasAttr("name") || !e.HasAttr("grade") {
			t.Errorf("person witness missing required attributes: %s", e)
		}
		if e.Attr("grade")[0].Type() != dirtree.TypeInt {
			t.Errorf("grade should be integer-typed")
		}
	}
}

func TestConsistencyFactsReported(t *testing.T) {
	s := whitePagesSchema(t)
	res := CheckConsistency(s)
	if res.Facts == 0 {
		t.Errorf("closed fact count should be positive")
	}
}
