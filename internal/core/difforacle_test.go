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
	fired := contentKinds{}
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := workload.RandomSchema(rng, workload.SchemaConfig{
			Classes:         rng.Intn(6) + 2,
			Required:        rng.Intn(5),
			Forbidden:       rng.Intn(4),
			RequiredClasses: rng.Intn(3),
			Deep:            seed%2 == 0,
		})
		addContentSchema(s)
		d := workload.RandomInstance(s, rng, rng.Intn(120))
		fillContent(s, d, rng, seed%3 != 0)
		fired.add(s, d)
		concurrency, maxWitnesses := oracleParams(int(seed))
		if err := core.DiffEngines(s, d, concurrency, maxWitnesses); err != nil {
			t.Fatalf("seed %d (n=%d, workers=%d, cap=%d): %v",
				seed, d.Len(), concurrency, maxWitnesses, err)
		}
	}
	fired.requireAll(t)
}

func TestDiffOracleHardCases(t *testing.T) {
	fired := contentKinds{}
	for i, hc := range workload.HardCases() {
		addContentSchema(hc.Schema)
		for _, n := range []int{0, 7, 40} {
			rng := rand.New(rand.NewSource(int64(i*100 + n)))
			d := workload.RandomInstance(hc.Schema, rng, n)
			fillContent(hc.Schema, d, rng, n == 40)
			fired.add(hc.Schema, d)
			if err := core.DiffEngines(hc.Schema, d, 4, 0); err != nil {
				t.Fatalf("%s n=%d: %v", hc.Name, n, err)
			}
		}
	}
	fired.requireAll(t)
}

// addContentSchema gives a structure-only schema the content that
// fillContent's corruptions break: top requires name and allows age (an
// integer) and ssn (single-valued), and allows the auxiliary class
// auxOK but not auxBad. Every class inherits top, so a generated entry
// is content-legal once it has a name.
func addContentSchema(s *core.Schema) {
	for _, x := range []string{"auxOK", "auxBad"} {
		if err := s.Classes.AddAux(x); err != nil {
			panic(err)
		}
	}
	if err := s.Classes.AllowAux(core.ClassTop, "auxOK"); err != nil {
		panic(err)
	}
	s.Attrs.Require(core.ClassTop, "name")
	s.Attrs.Allow(core.ClassTop, "age", "ssn")
	s.Registry.Declare("age", dirtree.TypeInt)
	s.Registry.DeclareSingle("ssn", dirtree.String("").Type())
}

// fillContent gives every entry of an instance generated over an
// addContentSchema schema a legal name and age. With corrupt set, it
// then seeds content violations into some entries: every class-set
// template kind (unknown, no core, inheritance, incomparable,
// disallowed aux) and every per-entry kind (missing, disallowed
// attribute, typing).
func fillContent(s *core.Schema, d *dirtree.Directory, rng *rand.Rand, corrupt bool) {
	cores := s.Classes.CoreClasses()
	for _, e := range append([]*dirtree.Entry(nil), d.Entries()...) {
		e.AddValue("name", dirtree.String(e.RDN()))
		e.AddValue("age", dirtree.Int(int64(rng.Intn(90))))
		if !corrupt {
			continue
		}
		switch rng.Intn(12) {
		case 0:
			e.AddClass("bogusClass") // unknown class
		case 1:
			e.SetValues(dirtree.AttrObjectClass, dirtree.String("auxOK")) // no core class
		case 2:
			e.RemoveClass(core.ClassTop) // inheritance, or no core for a bare top
		case 3:
			e.AddClass(cores[rng.Intn(len(cores))]) // incomparable when off the chain
		case 4:
			e.AddClass("auxBad") // auxiliary class no core class allows
		case 5:
			e.SetValues("name") // required attribute missing
		case 6:
			e.AddValue("salary", dirtree.String("42")) // attribute no class allows
		case 7:
			e.SetValues("age", dirtree.String("old")) // value outside the type's domain
		case 8:
			e.SetValues("ssn", dirtree.String("1"), dirtree.String("2")) // single-valued overflow
		}
	}
}

// contentKinds tallies the content violation kinds an oracle test's
// instances fire, so a test can require that its corpus exercises
// every kind of the per-set templates and the per-entry pass.
type contentKinds map[core.ViolationKind]int

func (k contentKinds) add(s *core.Schema, d *dirtree.Directory) {
	for _, v := range core.NewChecker(s).CheckContent(d).Violations {
		k[v.Kind]++
	}
}

func (k contentKinds) requireAll(t *testing.T) {
	t.Helper()
	for kind := core.ViolationKind(0); kind.Content(); kind++ {
		if k[kind] == 0 {
			t.Errorf("no instance fires a %s violation; tallies %v", kind, k)
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

// TestContentCheckAllocsFlat pins the content check's allocations to the
// number of class sets, not entries: whitepages corpora of 1k, 8k and
// 32k entries carry the same class sets, so one CheckContent allocates
// exactly as often over each.
func TestContentCheckAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s := workload.WhitePagesSchema()
	c := core.NewChecker(s)
	c.Concurrency = 1
	var first float64
	for i, n := range []int{1000, 8000, 32000} {
		d := workload.Corpus(s, rand.New(rand.NewSource(1)), n)
		d.EnsureEncoded()
		allocs := testing.AllocsPerRun(5, func() {
			if !c.CheckContent(d).Legal() {
				t.Fatalf("n=%d: corpus is content-illegal", n)
			}
		})
		t.Logf("n=%d: %d class sets, %.0f allocations", n, len(d.ClassSets()), allocs)
		if i == 0 {
			first = allocs
		} else if allocs != first {
			t.Errorf("n=%d: %.0f allocations, %.0f at n=1000", n, allocs, first)
		}
	}
}
