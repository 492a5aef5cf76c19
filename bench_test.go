// Benchmarks regenerating the paper's complexity claims, one group per
// experiment of the DESIGN.md index. Run with:
//
//	go test -bench=. -benchmem
//
// E3  BenchmarkLegality*      — Theorem 3.1: linear full legality checks
// E4  BenchmarkStructure*     — naive quadratic baseline vs Figure 4 queries
// E6  BenchmarkInsertCheck*   — Figure 5 incremental vs full insert checks
// E6  BenchmarkDeleteCheck*   — Figure 5 deletion rows, narrowed extension
// E7  BenchmarkRequiredClass* — Section 4 count-index remark
// E9  BenchmarkConsistency*   — Theorem 5.2 polynomial decision
// E13 BenchmarkOptimizedQuery — Section 7 schema-aided query optimization
//
// plus substrate microbenchmarks (queries, filters, LDIF, applier).
package boundschema_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"boundschema"
	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/filter"
	"boundschema/internal/hquery"
	"boundschema/internal/ldif"
	"boundschema/internal/txn"
	"boundschema/internal/workload"
)

var corpusCache = map[int]*dirtree.Directory{}

func corpus(b *testing.B, n int) (*core.Schema, *dirtree.Directory) {
	b.Helper()
	s := workload.WhitePagesSchema()
	d, ok := corpusCache[n]
	if !ok {
		d = workload.Corpus(s, rand.New(rand.NewSource(7)), n)
		d.EnsureEncoded()
		corpusCache[n] = d
	}
	return s, d
}

// ---------------------------------------------------------------------
// E3 — Theorem 3.1.

func BenchmarkLegalityFull(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, d := corpus(b, n)
			checker := core.NewChecker(s)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !checker.Check(d).Legal() {
					b.Fatal("corpus must be legal")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/entry")
		})
	}
}

// BenchmarkCheckParallel measures the chunked legality engine
// (internal/core/parallel.go) at several pool widths on a 50k-entry
// corpus. workers=1 is the baseline; on a machine with GOMAXPROCS ≥ 4
// the workers=4 case should be ≥2x faster. Every width's report is
// cross-checked for byte-identity with workers=1 once before timing.
func BenchmarkCheckParallel(b *testing.B) {
	s, d := corpus(b, 50000)
	one := core.NewChecker(s)
	one.Concurrency = 1
	ref := one.Check(d).String()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			checker := core.NewChecker(s)
			checker.Concurrency = workers
			if got := checker.Check(d).String(); got != ref {
				b.Fatalf("report at %d workers diverges from workers=1", workers)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !checker.Check(d).Legal() {
					b.Fatal("corpus must be legal")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d.Len()), "ns/entry")
		})
	}
}

func BenchmarkLegalityContentOnly(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, d := corpus(b, n)
			checker := core.NewChecker(s)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !checker.CheckContent(d).Legal() {
					b.Fatal("corpus must be content-legal")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// E4 — naive quadratic baseline vs the query reduction.

func BenchmarkStructureQueryBased(b *testing.B) {
	for _, n := range []int{500, 2000, 8000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, d := corpus(b, n)
			checker := core.NewChecker(s)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				checker.CheckStructure(d)
			}
		})
	}
}

func BenchmarkStructureNaive(b *testing.B) {
	for _, n := range []int{500, 2000, 8000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, d := corpus(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.NaiveStructureCheck(s, d)
			}
		})
	}
}

// ---------------------------------------------------------------------
// E6 — Figure 5: incremental insertion checks vs full rechecks, per
// structure element of the white-pages schema.

func insertionFixture(b *testing.B, n int) (*core.Schema, *dirtree.Directory, hquery.Binding) {
	s := workload.WhitePagesSchema()
	rng := rand.New(rand.NewSource(5))
	d := workload.Corpus(s, rng, n)
	frag := workload.UpdateStream(s, rng, 8)
	groups := d.ClassEntries("orgGroup")
	root, err := d.GraftSubtree(groups[len(groups)/2], frag.Roots()[0])
	if err != nil {
		b.Fatal(err)
	}
	d.EnsureEncoded()
	return s, d, hquery.DeltaBinding(d, root)
}

func BenchmarkInsertCheckIncremental(b *testing.B) {
	s, _, bind := insertionFixture(b, 50000)
	checks := core.InsertChecks(s.Structure)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, chk := range checks {
			if !chk.Holds(bind) {
				b.Fatal("fixture insertion must be legal")
			}
		}
	}
}

func BenchmarkInsertCheckFullRecheck(b *testing.B) {
	s, d, _ := insertionFixture(b, 50000)
	checker := core.NewChecker(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !checker.CheckStructure(d).Legal() {
			b.Fatal("fixture insertion must be legal")
		}
	}
}

// BenchmarkInsertCheckByDeltaSize shows the incremental cost scaling with
// |Δ| rather than |D|.
func BenchmarkInsertCheckByDeltaSize(b *testing.B) {
	for _, dsize := range []int{2, 16, 128, 1024} {
		b.Run(fmt.Sprintf("delta=%d", dsize), func(b *testing.B) {
			s := workload.WhitePagesSchema()
			rng := rand.New(rand.NewSource(5))
			d := workload.Corpus(s, rng, 50000)
			frag := workload.UpdateStream(s, rng, dsize)
			groups := d.ClassEntries("orgGroup")
			root, err := d.GraftSubtree(groups[len(groups)/2], frag.Roots()[0])
			if err != nil {
				b.Fatal(err)
			}
			d.EnsureEncoded()
			bind := hquery.DeltaBinding(d, root)
			checks := core.InsertChecks(s.Structure)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, chk := range checks {
					chk.Holds(bind)
				}
			}
		})
	}
}

// Deletion rows: the Figure 5 "N" rows need a survivor recheck; counting
// the class posting lists along Δ's ancestors (what the applier runs)
// avoids it.

func deletionFixture(b *testing.B, n int) (*core.Schema, *dirtree.Directory, *dirtree.Entry) {
	s, d := corpus(b, n)
	units := d.ClassEntries("orgUnit")
	return s, d, units[len(units)/2]
}

func BenchmarkDeleteCheckFig5(b *testing.B) {
	s, d, victim := deletionFixture(b, 50000)
	bind := hquery.DeltaBinding(d, victim)
	checks := core.DeleteChecks(s.Structure)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, chk := range checks {
			chk.Holds(bind)
		}
	}
}

func BenchmarkDeleteCheckNarrowed(b *testing.B) {
	s, d, victim := deletionFixture(b, 50000)
	var rels []core.RequiredRel
	for _, chk := range core.DeleteChecks(s.Structure) {
		if rel, ok := chk.Element.(core.RequiredRel); ok && !chk.Incremental {
			rels = append(rels, rel)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rel := range rels {
			txn.NarrowedDeleteCheck(d, victim, rel)
		}
	}
}

// ---------------------------------------------------------------------
// E7 — required classes under deletion: survivor scan vs posting-list
// length.

func BenchmarkRequiredClassScan(b *testing.B) {
	s, d, victim := deletionFixture(b, 50000)
	bind := hquery.DeltaBinding(d, victim)
	classes := s.Structure.RequiredClasses()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range classes {
			core.DeleteCheckClass(c).Holds(bind)
		}
	}
}

func BenchmarkRequiredClassPostings(b *testing.B) {
	s, d, victim := deletionFixture(b, 50000)
	delta := d.SubtreeView(victim)
	classes := s.Structure.RequiredClasses()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range classes {
			if d.ClassCount(c)-len(delta.ClassEntries(c)) < 1 {
				b.Fatal("corpus must keep every required class")
			}
		}
	}
}

// ---------------------------------------------------------------------
// E9 — Theorem 5.2: polynomial consistency decision.

func BenchmarkConsistencyRandom(b *testing.B) {
	for _, n := range []int{20, 80, 320} {
		b.Run(fmt.Sprintf("classes=%d", n), func(b *testing.B) {
			s := workload.RandomSchema(rand.New(rand.NewSource(17)), workload.SchemaConfig{
				Classes: n, Required: n, Forbidden: n / 2, RequiredClasses: 3, Deep: true,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.CheckConsistency(s)
			}
		})
	}
}

func BenchmarkConsistencyCyclicFamily(b *testing.B) {
	for _, k := range []int{10, 40, 160} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			s := workload.CyclicSchema(k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if core.CheckConsistency(s).Consistent {
					b.Fatal("cyclic family must be inconsistent")
				}
			}
		})
	}
}

func BenchmarkMaterializeWhitePages(b *testing.B) {
	s := workload.WhitePagesSchema()
	for i := 0; i < b.N; i++ {
		if _, err := core.Materialize(s); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// E13 — Section 7: schema-aided query optimization. Each query runs as
// written and as hquery.Optimize rewrites it from the schema's facts;
// internal/core's TestOptimizeGuaranteedElement pins the rewrites.

func BenchmarkOptimizedQuery(b *testing.B) {
	s, d := corpus(b, 50000)
	facts := core.NewQueryFacts(s)
	bind := hquery.NewBinding(d)
	for _, qq := range []struct{ name, q string }{
		{"orgGroup-without-person", "(minus (select (objectClass=orgGroup)) (desc (select (objectClass=orgGroup)) (select (objectClass=person))))"},
		{"person-under-organization", "(anc (select (objectClass=person)) (select (objectClass=organization)))"},
		{"child-of-person", "(parent (select (objectClass=top)) (select (objectClass=person)))"},
		{"researcher-under-orgUnit", "(desc (select (objectClass=orgUnit)) (select (objectClass=researcher)))"},
	} {
		raw := hquery.MustParse(qq.q)
		for i, q := range []hquery.Query{raw, hquery.Optimize(raw, facts)} {
			b.Run(qq.name+"/"+[]string{"raw", "optimized"}[i], func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					hquery.Eval(q, bind)
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// Substrate microbenchmarks.

func BenchmarkHQueryDescJoin(b *testing.B) {
	_, d := corpus(b, 50000)
	q := hquery.Desc(hquery.ClassAtom("orgGroup"), hquery.ClassAtom("person"))
	bind := hquery.NewBinding(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hquery.Eval(q, bind)
	}
}

func BenchmarkHQueryFig4Violation(b *testing.B) {
	_, d := corpus(b, 50000)
	q := core.RequiredRelQuery(core.RequiredRel{Source: "orgGroup", Axis: core.AxisDesc, Target: "person"})
	bind := hquery.NewBinding(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !hquery.Empty(q, bind) {
			b.Fatal("corpus must satisfy the element")
		}
	}
}

func BenchmarkFilterMatch(b *testing.B) {
	_, d := corpus(b, 1000)
	f := filter.MustParse("(&(objectClass=person)(|(mail=*)(cellularPhone=*)))")
	ents := d.Entries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Matches(ents[i%len(ents)])
	}
}

func BenchmarkLDIFWrite(b *testing.B) {
	_, d := corpus(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := ldif.WriteDirectory(&buf, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLDIFRead(b *testing.B) {
	s, d := corpus(b, 10000)
	var buf bytes.Buffer
	if err := ldif.WriteDirectory(&buf, d); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ldif.ReadDirectory(bytes.NewReader(data), s.Registry); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplierLegalInsert(b *testing.B) {
	s, d0 := corpus(b, 20000)
	d := d0.Clone()
	app := boundschema.NewApplier(s)
	groups := d.ClassEntries("orgGroup")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parent := groups[i%len(groups)]
		tx := &txn.Transaction{}
		dn := fmt.Sprintf("ou=bench%d,%s", i, parent.DN())
		tx.Add(dn, []string{"orgUnit", "orgGroup", "top"}, nil)
		tx.Add(fmt.Sprintf("uid=benchp%d,%s", i, dn), []string{"person", "top"},
			map[string][]dirtree.Value{"name": {dirtree.String("bench")}})
		r, err := app.Apply(d, tx)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Legal() {
			b.Fatal("insertion must be legal")
		}
	}
}

func BenchmarkEncodeForest(b *testing.B) {
	_, d := corpus(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Force a re-encode by touching and restoring nothing: clone is
		// the honest way to measure the walk.
		d.Clone().EnsureEncoded()
	}
}
