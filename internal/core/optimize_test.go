package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"boundschema/internal/dirtree"
	"boundschema/internal/hquery"
)

func TestOptimizeGuaranteedElement(t *testing.T) {
	s := whitePagesSchema(t)
	// Q1 from Section 3.2: the violation query for orgGroup →de person.
	// The schema guarantees the relationship, so the query is statically
	// empty after optimization.
	q1 := RequiredRelQuery(RequiredRel{Source: "orgGroup", Axis: AxisDesc, Target: "person"})
	opt := OptimizeQuery(q1, s)
	if !hquery.IsStaticallyEmpty(opt) {
		t.Fatalf("Q1 should optimize to ∅, got %s", hquery.String(opt))
	}
	// Q2: the forbidden-relationship query for person ⇥ch top.
	q2 := ForbiddenRelQuery(ForbiddenRel{Upper: "person", Axis: AxisChild, Lower: ClassTop})
	if !hquery.IsStaticallyEmpty(OptimizeQuery(q2, s)) {
		t.Fatalf("Q2 should optimize to ∅")
	}
	// A query the schema says nothing about stays put.
	q3 := hquery.Desc(hquery.ClassAtom("orgUnit"), hquery.ClassAtom("researcher"))
	if hquery.IsStaticallyEmpty(OptimizeQuery(q3, s)) {
		t.Fatalf("unguaranteed query wrongly optimized to ∅")
	}
	// Section 7's user queries, with the forms they optimize to: three
	// fold (@0 is the empty instance) and the researcher query, which
	// the schema says nothing about, is untouched.
	for _, tc := range []struct{ q, want string }{
		{"(minus (select (objectClass=orgGroup)) (desc (select (objectClass=orgGroup)) (select (objectClass=person))))",
			"(select (objectClass=orgGroup) @0)"},
		{"(anc (select (objectClass=person)) (select (objectClass=organization)))", "(select (objectClass=person))"},
		{"(parent (select (objectClass=top)) (select (objectClass=person)))", "(select (objectClass=top) @0)"},
		{"(desc (select (objectClass=orgUnit)) (select (objectClass=researcher)))",
			"(desc (select (objectClass=orgUnit)) (select (objectClass=researcher)))"},
	} {
		if got := hquery.String(OptimizeQuery(hquery.MustParse(tc.q), s)); got != tc.want {
			t.Errorf("%s optimized to %s, want %s", tc.q, got, tc.want)
		}
	}
}

func TestOptimizeUnsatAtom(t *testing.T) {
	s := flatSchema(t, "a", "b")
	s.Structure.RequireRel("a", AxisDesc, "a") // a is unsatisfiable
	q := hquery.Child(hquery.ClassAtom("a"), hquery.ClassAtom("b"))
	if !hquery.IsStaticallyEmpty(OptimizeQuery(q, s)) {
		t.Fatalf("join over an unsatisfiable class should be ∅")
	}
	// Undeclared core classes cannot occur either; auxiliaries can.
	s2 := whitePagesSchema(t)
	if !hquery.IsStaticallyEmpty(OptimizeQuery(hquery.ClassAtom("packetRouter"), s2)) {
		t.Fatalf("undeclared class atom should be ∅")
	}
	if hquery.IsStaticallyEmpty(OptimizeQuery(hquery.ClassAtom("online"), s2)) {
		t.Fatalf("auxiliary class atom must survive")
	}
}

func TestOptimizeForbiddenUpwardAxes(t *testing.T) {
	s := whitePagesSchema(t)
	// δp(σtop, σperson): entries whose parent is a person — the schema
	// forbids person children entirely.
	q := hquery.Parent(hquery.ClassAtom(ClassTop), hquery.ClassAtom("person"))
	if !hquery.IsStaticallyEmpty(OptimizeQuery(q, s)) {
		t.Fatalf("parent-join into a childless class should be ∅")
	}
	q2 := hquery.Anc(hquery.ClassAtom("orgUnit"), hquery.ClassAtom("person"))
	if !hquery.IsStaticallyEmpty(OptimizeQuery(q2, s)) {
		t.Fatalf("anc-join under a childless class should be ∅")
	}
}

func TestOptimizeLeavesDeltaQueriesAlone(t *testing.T) {
	s := whitePagesSchema(t)
	q := hquery.Desc(hquery.ClassAtomOn("orgGroup", hquery.InstDelta),
		hquery.ClassAtomOn("person", hquery.InstDelta))
	opt := OptimizeQuery(q, s)
	if hquery.String(opt) != hquery.String(q) {
		t.Fatalf("Δ-query was rewritten: %s", hquery.String(opt))
	}
}

// TestQuickOptimizePreservesResultsOnLegalInstances: on random legal
// instances, an optimized random query returns exactly the original's
// results.
func TestQuickOptimizePreservesResultsOnLegalInstances(t *testing.T) {
	s := whitePagesSchema(t)
	facts := NewQueryFacts(s)
	classes := []string{"orgGroup", "organization", "orgUnit", "person",
		"researcher", "staffMember", "online", ClassTop}
	checker := NewChecker(s)

	var build func(rng *rand.Rand, depth int) hquery.Query
	build = func(rng *rand.Rand, depth int) hquery.Query {
		if depth <= 0 || rng.Intn(3) == 0 {
			return hquery.ClassAtom(classes[rng.Intn(len(classes))])
		}
		l, r := build(rng, depth-1), build(rng, depth-1)
		switch rng.Intn(5) {
		case 0:
			return hquery.Child(l, r)
		case 1:
			return hquery.Parent(l, r)
		case 2:
			return hquery.Desc(l, r)
		case 3:
			return hquery.Anc(l, r)
		default:
			return hquery.Minus(l, r)
		}
	}

	f := func(seed int64, qdepth uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := legalGrownInstance(t, s, rng)
		if !checker.Legal(d) {
			t.Fatalf("precondition: instance must be legal")
		}
		b := hquery.NewBinding(d)
		q := build(rng, int(qdepth%4))
		opt := hquery.Optimize(q, facts)
		orig := hquery.Eval(q, b)
		after := hquery.Eval(opt, b)
		if len(orig) != len(after) {
			t.Logf("size mismatch for %s -> %s: %d vs %d",
				hquery.String(q), hquery.String(opt), len(orig), len(after))
			return false
		}
		for i := range orig {
			if orig[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func legalGrownInstance(t testing.TB, s *Schema, rng *rand.Rand) *dirtree.Directory {
	d := whitePagesInstance(t, s)
	growLegal(t, s, d, rng, rng.Intn(30))
	return d
}

// TestOptimizeStillCatchesViolations: optimization assumes legality, so
// on a VIOLATING instance the optimized query may differ — this test
// documents that boundary by exhibiting one such divergence.
func TestOptimizeStillCatchesViolations(t *testing.T) {
	s := whitePagesSchema(t)
	d := whitePagesInstance(t, s)
	// Break orgGroup →de person.
	labs := entryByRDN(t, d, "ou=attLabs")
	if _, err := d.AddChild(labs, "ou=empty", "orgUnit", "orgGroup", "top"); err != nil {
		t.Fatal(err)
	}
	q := RequiredRelQuery(RequiredRel{Source: "orgGroup", Axis: AxisDesc, Target: "person"})
	b := hquery.NewBinding(d)
	if hquery.Empty(q, b) {
		t.Fatalf("original query must find the violation")
	}
	opt := OptimizeQuery(q, s)
	if !hquery.Empty(opt, b) {
		t.Fatalf("optimized form is statically empty by construction")
	}
	// The checker therefore never optimizes its own violation queries;
	// optimization serves user queries over instances maintained legal
	// by the applier.

}
