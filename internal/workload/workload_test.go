package workload

import (
	"math/rand"
	"strings"
	"testing"

	"boundschema/internal/core"
)

func TestWhitePagesFixtureLegal(t *testing.T) {
	s := WhitePagesSchema()
	d := WhitePagesInstance(s)
	if d.Len() != 6 {
		t.Fatalf("Figure 1 has 6 entries, got %d", d.Len())
	}
	if r := core.NewChecker(s).Check(d); !r.Legal() {
		t.Fatalf("Figure 1 instance illegal:\n%s", r)
	}
	if !s.Consistent() {
		t.Fatalf("white pages schema inconsistent")
	}
}

func TestCorpusLegalAndScales(t *testing.T) {
	s := WhitePagesSchema()
	checker := core.NewChecker(s)
	for _, n := range []int{10, 100, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		d := Corpus(s, rng, n)
		if d.Len() < n || d.Len() > n+2 {
			t.Errorf("Corpus(%d) produced %d entries", n, d.Len())
		}
		if r := checker.Check(d); !r.Legal() {
			t.Fatalf("Corpus(%d) illegal:\n%s", n, r)
		}
	}
}

func TestCorpusHeterogeneity(t *testing.T) {
	s := WhitePagesSchema()
	d := Corpus(s, rand.New(rand.NewSource(7)), 500)
	mails := make(map[int]int)
	for _, p := range d.ClassEntries("person") {
		mails[len(p.Attr("mail"))]++
	}
	// The paper's motivation: some persons have no mail, some one, some
	// several.
	if mails[0] == 0 || mails[1] == 0 || mails[2]+mails[3] == 0 {
		t.Errorf("mail heterogeneity missing: %v", mails)
	}
}

func TestGrowLegalPreservesLegality(t *testing.T) {
	s := WhitePagesSchema()
	checker := core.NewChecker(s)
	rng := rand.New(rand.NewSource(3))
	d := Corpus(s, rng, 50)
	for i := 0; i < 5; i++ {
		growLegal(d, rng, 30)
		if r := checker.Check(d); !r.Legal() {
			t.Fatalf("grow round %d broke legality:\n%s", i, r)
		}
	}
}

func TestRandomSchemaShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := RandomSchema(rng, SchemaConfig{Classes: 10, Required: 5, Forbidden: 3, RequiredClasses: 2, Deep: true})
	if err := s.Validate(); err != nil {
		t.Fatalf("random schema invalid: %v", err)
	}
	if got := len(s.Classes.CoreClasses()); got != 11 { // + top
		t.Errorf("core classes = %d, want 11", got)
	}
	if got := len(s.Structure.RequiredRels()); got == 0 || got > 5 {
		t.Errorf("required rels = %d", got)
	}
}

func TestRandomInstanceUsesDeclaredClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := RandomSchema(rng, SchemaConfig{Classes: 6})
	d := RandomInstance(s, rng, 200)
	if d.Len() != 200 {
		t.Fatalf("len = %d", d.Len())
	}
	checker := core.NewChecker(s)
	for _, e := range d.Entries() {
		// Entries are built from superclass chains, so the content
		// (class) schema holds by construction.
		if !checker.EntryLegal(e) {
			t.Fatalf("entry %s violates content schema", e)
		}
	}
}

func TestSeededFamilies(t *testing.T) {
	for _, k := range []int{2, 5, 10, 20, 50, 100} {
		if core.CheckConsistency(CyclicSchema(k)).Consistent {
			t.Errorf("CyclicSchema(%d) should be inconsistent", k)
		}
		if core.CheckConsistency(ContradictorySchema(k)).Consistent {
			t.Errorf("ContradictorySchema(%d) should be inconsistent", k)
		}
	}
}

func TestUpdateStreamFragmentPreservesLegality(t *testing.T) {
	s := WhitePagesSchema()
	checker := core.NewChecker(s)
	rng := rand.New(rand.NewSource(9))
	d := Corpus(s, rng, 100)
	frag := UpdateStream(s, rng, 5)
	if frag.Len() != 5 {
		t.Fatalf("fragment len = %d, want 5", frag.Len())
	}
	groups := d.ClassEntries("orgGroup")
	if _, err := d.GraftSubtree(groups[len(groups)-1], frag.Roots()[0]); err != nil {
		t.Fatal(err)
	}
	if r := checker.Check(d); !r.Legal() {
		t.Fatalf("grafted fragment broke legality:\n%s", r)
	}
}

func TestNetPolicyCorpusLegalAndScales(t *testing.T) {
	s := NetPolicySchema()
	if !s.Consistent() {
		t.Fatal("netpolicy schema inconsistent")
	}
	checker := core.NewChecker(s)
	for _, n := range []int{20, 200, 2000} {
		rng := rand.New(rand.NewSource(int64(n)))
		d := NetPolicyCorpus(s, rng, n)
		if d.Len() < n || d.Len() > n+2 {
			t.Errorf("NetPolicyCorpus(%d) produced %d entries", n, d.Len())
		}
		if r := checker.Check(d); !r.Legal() {
			t.Fatalf("NetPolicyCorpus(%d) illegal:\n%s", n, r)
		}
		if len(d.ClassEntries("subnet")) == 0 || len(d.ClassEntries("policy")) == 0 {
			t.Errorf("NetPolicyCorpus(%d) missing subnets or policies", n)
		}
	}
	// Spaced base DNs must exist — the load harness's range searches and
	// the spaced-DN protocol regression depend on them.
	d := NetPolicyCorpus(s, rand.New(rand.NewSource(1)), 500)
	spaced := false
	for _, e := range d.ClassEntries("subnet") {
		if strings.Contains(e.DN(), " ") {
			spaced = true
		}
	}
	if !spaced {
		t.Error("no subnet with a spaced DN in a 500-entry corpus")
	}
}

func TestSemiStructCorpusLegalAndScales(t *testing.T) {
	s := SemiStructSchema()
	if !s.Consistent() {
		t.Fatal("semistruct schema inconsistent")
	}
	checker := core.NewChecker(s)
	for _, n := range []int{20, 200, 2000} {
		rng := rand.New(rand.NewSource(int64(n)))
		d := SemiStructCorpus(s, rng, n)
		if d.Len() < n || d.Len() > n+2 {
			t.Errorf("SemiStructCorpus(%d) produced %d entries", n, d.Len())
		}
		if r := checker.Check(d); !r.Legal() {
			t.Fatalf("SemiStructCorpus(%d) illegal:\n%s", n, r)
		}
	}
	// The scenario's point: names at varying depth and countries beside
	// corporations, with no country ever nested under another.
	d := SemiStructCorpus(s, rand.New(rand.NewSource(4)), 1000)
	if len(d.ClassEntries("contact")) == 0 {
		t.Error("no deep (person→contact→name) chains generated")
	}
	if len(d.ClassEntries("country")) < 2 {
		t.Error("only the root country generated")
	}
}
