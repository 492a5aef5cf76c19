package hquery_test

// External test package: the white-pages corpus lives in workload, which
// imports core, which imports hquery.

import (
	"math/rand"
	"testing"

	"boundschema/internal/filter"
	"boundschema/internal/hquery"
	"boundschema/internal/workload"
)

// TestValueIndexProbeIsFlat pins that an equality SEARCH is served by the
// value index at any |D|: for an equality on name, at 1k, 8k and 32k
// entries, hit or miss, the planner picks index-eq, fetches exactly the
// matching entries as candidates (a scan fetches |D|), and evaluation
// allocates the same at every size.
func TestValueIndexProbeIsFlat(t *testing.T) {
	s := workload.WhitePagesSchema()
	type probe struct {
		kind, name string
		want       int // matching entries
	}
	allocs := map[string]float64{} // by kind, at the smallest size
	for _, n := range []int{1_000, 8_000, 32_000} {
		d := workload.Corpus(s, rand.New(rand.NewSource(1)), n)
		v := d.All()
		hit := d.ClassEntries("person")[0].Attr("name")[0].String()
		for _, p := range []probe{{"hit", hit, 1}, {"miss", "no such person", 0}} {
			f := filter.Compare{Attr: "name", Op: filter.OpEqual, Value: p.name}
			plan := hquery.PlanSelect(f, v)
			if plan.Strategy != "index-eq" || plan.Est != p.want {
				t.Fatalf("|D|=%d: SEARCH %s planned %q fetching %d candidates, want index-eq fetching %d",
					n, f, plan.Strategy, plan.Est, p.want)
			}
			// The first evaluation may build the index; it is not the probe.
			if got, _ := hquery.EvalSelect(f, v); len(got) != p.want {
				t.Fatalf("|D|=%d: SEARCH %s returned %d entries, want %d", n, f, len(got), p.want)
			}
			a := testing.AllocsPerRun(20, func() { hquery.EvalSelect(f, v) })
			if first, ok := allocs[p.kind]; !ok {
				allocs[p.kind] = a
			} else if a != first {
				t.Errorf("|D|=%d: %s probe allocates %v, want %v as at the smallest size", n, p.kind, a, first)
			}
		}
	}
	t.Logf("allocations per equality probe: hit %v, miss %v", allocs["hit"], allocs["miss"])
}
