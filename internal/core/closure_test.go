package core_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"boundschema/internal/core"
	"boundschema/internal/schemadsl"
	"boundschema/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/closure_golden.txt from the current closure")

const closureGoldenFile = "testdata/closure_golden.txt"

type namedSchema struct {
	name string
	s    *core.Schema
}

// taxonomy is the inconsistency taxonomy of Sections 5.1-5.2: a cycle
// and a contradiction, each stated directly and induced by the class
// hierarchy, and footnote 3's cycle without c⇓, which is consistent.
var taxonomy = []struct{ name, src string }{
	{"structure-cycle", "class c1 extends top { } class c2 extends top { } require class c1 require c1 child c2 require c2 descendant c1"},
	{"hierarchy-cycle", "class c2 extends top { } class c1 extends c2 { } class c4 extends top { } class c3 extends c4 { } class c5 extends c1 { } " +
		"require class c1 require c2 child c3 require c4 descendant c5"},
	{"contradiction", "class c1 extends top { } class c2 extends top { } require class c1 require c1 descendant c2 forbid c1 descendant c2"},
	{"hierarchy-contradiction", "class c3 extends top { } class c2 extends c3 { } class c1 extends top { } require class c1 require c1 child c2 forbid c1 child c3"},
	{"footnote-3", "class c1 extends top { } class c2 extends top { } require c1 child c2 require c2 descendant c1"},
}

// closureCorpus is the schema corpus the closure tests share: the three
// workload schemas, every extension-isolating hard case, the Section
// 5.1-5.2 taxonomy, the Section 5.1 and 5.2 families at three sizes,
// and 400 fixed-seed random schemas in two profiles (sparse on even
// seeds, dense on odd ones).
func closureCorpus() []namedSchema {
	out := []namedSchema{
		{"whitepages", workload.WhitePagesSchema()},
		{"netpolicy", workload.NetPolicySchema()},
		{"semistruct", workload.SemiStructSchema()},
	}
	for i, hc := range workload.HardCases() {
		out = append(out, namedSchema{fmt.Sprintf("hard/%d", i), hc.Schema})
	}
	for _, tc := range taxonomy {
		s, _, err := schemadsl.Parse("schema " + tc.name + " { " + tc.src + " }")
		if err != nil {
			panic(err)
		}
		out = append(out, namedSchema{"taxonomy/" + tc.name, s})
	}
	for _, k := range []int{3, 10, 40} {
		out = append(out,
			namedSchema{fmt.Sprintf("cyclic/%d", k), workload.CyclicSchema(k)},
			namedSchema{fmt.Sprintf("contradictory/%d", k), workload.ContradictorySchema(k)})
	}
	for _, seed := range randomSeeds() {
		out = append(out, namedSchema{fmt.Sprintf("random/%d", seed), randomDraw(seed)})
	}
	return out
}

func randomSeeds() []int64 {
	seeds := make([]int64, 400)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	return seeds
}

// randomDraw is the corpus's random schema for seed.
func randomDraw(seed int64) *core.Schema {
	rng := rand.New(rand.NewSource(seed))
	cfg := workload.SchemaConfig{
		Classes:         rng.Intn(6) + 2,
		Required:        rng.Intn(6),
		Forbidden:       rng.Intn(4),
		RequiredClasses: rng.Intn(3) + 1,
		Deep:            seed%4 == 0,
	}
	if seed%2 == 1 {
		cfg = workload.SchemaConfig{
			Classes:         rng.Intn(8) + 3,
			Required:        rng.Intn(10) + 4,
			Forbidden:       rng.Intn(6) + 1,
			RequiredClasses: rng.Intn(3) + 1,
			Deep:            seed%4 == 1,
		}
	}
	return workload.RandomSchema(rng, cfg)
}

// inferModes are the two option sets every corpus schema is closed under.
var inferModes = []struct {
	name string
	opts core.InferOptions
}{
	{"full", core.InferOptions{}},
	{"pairwise", core.InferOptions{PairwiseOnly: true}},
}

// TestDerivations runs the derivation checker over every corpus schema
// in both option sets: each recorded fact is an instance of the rule it
// cites, with premises recorded before it.
func TestDerivations(t *testing.T) {
	for _, c := range closureCorpus() {
		for _, m := range inferModes {
			if err := core.CheckDerivations(core.InferWith(c.s, m.opts)); err != nil {
				t.Errorf("%s %s: %v", c.name, m.name, err)
			}
		}
	}
}

// TestClosureGolden pins the closure itself: per corpus schema and
// option set, the verdict, the fact count and a SHA-256 of the derived
// elements, and for an inconsistent schema the rules its ⊥ derivation
// uses. Run with -update to rewrite the golden file after a change that
// is meant to move the closure.
func TestClosureGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range closureCorpus() {
		for _, m := range inferModes {
			in := core.InferWith(c.s, m.opts)
			h := sha256.New()
			for _, el := range in.Derived() {
				fmt.Fprintln(h, el.ElementString())
			}
			fmt.Fprintf(&b, "%s %s inconsistent=%v facts=%d derived=%x",
				c.name, m.name, in.Inconsistent(), in.NumFacts(), h.Sum(nil))
			if in.Inconsistent() {
				fmt.Fprintf(&b, " rules=%s", rulesOn(in.ExplainInconsistency()))
			}
			b.WriteByte('\n')
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(closureGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(closureGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(want) || line != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, line, want[min(i, len(want)-1)])
		}
	}
	if g, w := strings.Count(got, "\n"), strings.Count(string(raw), "\n"); g != w {
		t.Errorf("%d golden lines, want %d", g, w)
	}
}

// rulesOn lists the distinct rule tags of a derivation, "[given]"
// aside, in first-use order.
func rulesOn(explanation string) string {
	var order []string
	for _, part := range strings.Split(explanation, "[")[1:] {
		tag, _, _ := strings.Cut(part, "]")
		if tag != "given" && !slices.Contains(order, tag) {
			order = append(order, tag)
		}
	}
	return strings.Join(order, ",")
}

// TestExplainDeterministic closes every random draw twice per option set:
// each derived element, and the inconsistency, must be explained the same
// way both times.
func TestExplainDeterministic(t *testing.T) {
	for _, seed := range randomSeeds() {
		s := randomDraw(seed)
		for _, m := range inferModes {
			a, b := core.InferWith(s, m.opts), core.InferWith(s, m.opts)
			els := append(a.Derived(), core.RequiredClass{Class: core.ClassNone})
			for _, el := range els {
				if x, y := a.Explain(el), b.Explain(el); x != y {
					t.Errorf("random/%d %s: %s explained two ways:\n%s\nand\n%s", seed, m.name, el.ElementString(), x, y)
					break
				}
			}
		}
	}
}

// TestSoundnessOnRandomWitnesses: every element the closure derives from
// a consistent random schema holds in its Materialize witness (Theorem
// 5.1). The 200 deep draws of seed 13 are fixed, so their counts are
// pinned.
func TestSoundnessOnRandomWitnesses(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	schemas, derived := 0, 0
	for r := 0; r < 200; r++ {
		s := workload.RandomSchema(rng, workload.SchemaConfig{
			Classes: rng.Intn(6) + 2, Required: rng.Intn(5) + 1,
			Forbidden: rng.Intn(3), RequiredClasses: rng.Intn(2) + 1, Deep: true,
		})
		if !s.Consistent() {
			continue
		}
		d, err := core.Materialize(s)
		if err != nil {
			t.Errorf("draw %d: consistent schema has no witness: %v", r, err)
			continue
		}
		schemas++
		for _, el := range core.Infer(s).Derived() {
			derived++
			if !core.Satisfies(d, el) {
				t.Errorf("draw %d: derived %s does not hold in the witness", r, el.ElementString())
			}
		}
	}
	if schemas != 82 || derived != 1927 {
		t.Errorf("%d consistent schemas, %d derived elements; want 82 and 1927", schemas, derived)
	}
}
