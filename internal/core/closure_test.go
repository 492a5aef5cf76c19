package core_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"boundschema/internal/core"
	"boundschema/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/closure_golden.txt from the current closure")

const closureGoldenFile = "testdata/closure_golden.txt"

type namedSchema struct {
	name string
	s    *core.Schema
}

// closureCorpus is the schema corpus the closure tests share: the three
// workload schemas, every extension-isolating hard case, the Section 5.1
// and 5.2 families at three sizes, and 400 fixed-seed random schemas in
// two profiles (sparse on even seeds, dense on odd ones).
func closureCorpus() []namedSchema {
	out := []namedSchema{
		{"whitepages", workload.WhitePagesSchema()},
		{"netpolicy", workload.NetPolicySchema()},
		{"semistruct", workload.SemiStructSchema()},
	}
	for i, hc := range workload.HardCases() {
		out = append(out, namedSchema{fmt.Sprintf("hard/%d", i), hc.Schema})
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
// elements. Run with -update to rewrite the golden file after a change
// that is meant to move the closure.
func TestClosureGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range closureCorpus() {
		for _, m := range inferModes {
			in := core.InferWith(c.s, m.opts)
			h := sha256.New()
			for _, el := range in.Derived() {
				fmt.Fprintln(h, el.ElementString())
			}
			fmt.Fprintf(&b, "%s %s inconsistent=%v facts=%d derived=%x\n",
				c.name, m.name, in.Inconsistent(), in.NumFacts(), h.Sum(nil))
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
