package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/workload"
)

// The differential-testing harness drives core.DiffEngines — the checker
// at one worker vs a wider pool, and both vs the naive key and quadratic
// structure references — over a few hundred randomized directories from
// every workload generator family:
// random schemas + random instances, the extension-rule hard cases, and
// white-pages corpora (clean and corrupted, with and without keys).

// oracleParams cycles worker counts and witness caps so chunk merges of
// different widths and capped/uncapped reports are all covered. Uncapped
// cases dominate because only they compare full violation sets against
// the naive oracle.
func oracleParams(i int) (concurrency, maxWitnesses int) {
	concs := []int{2, 3, 4, 8}
	caps := []int{0, 0, 1, 3}
	return concs[i%len(concs)], caps[i%len(caps)]
}

func TestDiffOracleRandom(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := workload.RandomSchema(rng, workload.SchemaConfig{
			Classes:         rng.Intn(6) + 2,
			Required:        rng.Intn(5),
			Forbidden:       rng.Intn(4),
			RequiredClasses: rng.Intn(3),
			Deep:            seed%2 == 0,
		})
		d := workload.RandomInstance(s, rng, rng.Intn(120))
		concurrency, maxWitnesses := oracleParams(int(seed))
		if err := core.DiffEngines(s, d, concurrency, maxWitnesses); err != nil {
			t.Fatalf("seed %d (n=%d, workers=%d, cap=%d): %v",
				seed, d.Len(), concurrency, maxWitnesses, err)
		}
	}
}

func TestDiffOracleHardCases(t *testing.T) {
	for i, hc := range workload.HardCases() {
		for _, n := range []int{0, 7, 40} {
			rng := rand.New(rand.NewSource(int64(i*100 + n)))
			d := workload.RandomInstance(hc.Schema, rng, n)
			if err := core.DiffEngines(hc.Schema, d, 4, 0); err != nil {
				t.Fatalf("%s n=%d: %v", hc.Name, n, err)
			}
		}
	}
}

func TestDiffOracleWhitePages(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		s := workload.WhitePagesSchema()
		if seed%2 == 0 {
			s.DeclareKey("mail")
		}
		d := workload.Corpus(s, rng, 60+rng.Intn(200))
		if seed%3 != 0 {
			corruptDirectory(d, rng)
		}
		concurrency, maxWitnesses := oracleParams(int(seed))
		if err := core.DiffEngines(s, d, concurrency, maxWitnesses); err != nil {
			t.Fatalf("seed %d (n=%d, workers=%d, cap=%d): %v",
				seed, d.Len(), concurrency, maxWitnesses, err)
		}
	}
}

// corruptDirectory seeds a mix of content, key and structure violations
// into a legal white-pages instance.
func corruptDirectory(d *dirtree.Directory, rng *rand.Rand) {
	entries := append([]*dirtree.Entry(nil), d.Entries()...)
	for i, e := range entries {
		switch rng.Intn(14) {
		case 0:
			e.AddClass("bogusClass") // unknown class
		case 1:
			e.SetValues("name") // drop person's required attribute
		case 2:
			e.AddValue("mail", dirtree.String("dup@example.org")) // key duplicate / disallowed attr
		case 3:
			e.RemoveClass("top") // break the inheritance chain
		case 4:
			e.AddValue("salary", dirtree.String("42")) // attribute no class allows
		case 5:
			e.AddClass("secretary") // aux not allowed by researcher cores
		case 6:
			if e.HasClass("person") {
				// person ⇥ch top is forbidden: any child under a person.
				_, _ = d.AddChild(e, fmt.Sprintf("cn=bad%d", i), "person", "top")
			}
		}
	}
}

// TestEntryCheckDoesNotAllocate pins the legal path of the per-entry
// check at zero allocations: a full CHECK runs it once per entry, and
// per-entry garbage there is a collector cycle every few CHECKs.
func TestEntryCheckDoesNotAllocate(t *testing.T) {
	s := workload.WhitePagesSchema()
	d := workload.Corpus(s, rand.New(rand.NewSource(1)), 200)
	c := core.NewChecker(s)
	for _, e := range d.Entries() {
		if n := testing.AllocsPerRun(10, func() { c.EntryLegal(e) }); n != 0 {
			t.Fatalf("EntryLegal(%s): %.0f allocations on a legal entry, want 0", e.DN(), n)
		}
	}
}
