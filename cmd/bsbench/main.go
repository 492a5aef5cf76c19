// Bsbench regenerates the paper's analytical results (DESIGN.md
// experiment index). The paper's evaluation is analytical — worked
// example, translation tables and theorems — so each experiment either
// re-derives a table (Figures 4 and 5), validates an equivalence over
// randomized inputs, or measures the complexity shape a theorem claims.
//
// Usage:
//
//	bsbench all            # run every experiment
//	bsbench e1 ... e13     # run one or more experiments
//	bsbench -quick all     # smaller sweeps (CI-sized)
//
// Experiments:
//
//	e1  Figures 1-3: the worked example and seeded violations
//	e2  Figure 4: element satisfaction ⟺ query emptiness
//	e3  Theorem 3.1: legality testing is linear in |D|
//	e4  Section 3.2: naive quadratic baseline vs query reduction
//	e5  Theorem 4.1: transaction normalization is order-independent
//	e6  Figure 5 / Theorem 4.2: incremental vs full update checks
//	e7  Section 4 remark: required classes under deletion, with counts
//	e8  Theorem 5.1: soundness of the inference system
//	e9  Theorem 5.2: consistency decision is polynomial
//	e10 Sections 5.1-5.2: the inconsistency taxonomy
//	e12 ablation: extension rules vs the pairwise reconstruction
//	e13 Section 7 future work: schema-aided query optimization
//
// E11 (semi-structured data) is examples/semistructured. The system
// experiments E14-E22 have no driver; EXPERIMENTS.md names the test that
// pins each one's fact.
package main

import (
	"flag"
	"fmt"
	"os"
)

var quick = flag.Bool("quick", false, "smaller sweeps")

type experiment struct {
	id    string
	title string
	run   func()
}

func main() {
	flag.Parse()
	exps := []experiment{
		{"e1", "Figures 1-3: worked example", runE1},
		{"e2", "Figure 4: translation equivalence", runE2},
		{"e3", "Theorem 3.1: linear legality testing", runE3},
		{"e4", "Section 3.2: naive baseline vs query reduction", runE4},
		{"e5", "Theorem 4.1: normalization modularity", runE5},
		{"e6", "Figure 5 / Theorem 4.2: incremental update checks", runE6},
		{"e7", "Section 4 remark: required classes counted off the posting lists", runE7},
		{"e8", "Theorem 5.1: inference soundness", runE8},
		{"e9", "Theorem 5.2: polynomial consistency", runE9},
		{"e10", "Sections 5.1-5.2: inconsistency taxonomy", runE10},
		{"e12", "Ablation: extension rules vs pairwise reconstruction", runE12},
		{"e13", "Section 7: schema-aided query optimization", runE13},
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: bsbench [-quick] all | e1 ... e13")
		os.Exit(2)
	}
	want := make(map[string]bool)
	for _, a := range args {
		want[a] = true
	}
	ran := false
	for _, e := range exps {
		if want["all"] || want[e.id] {
			fmt.Printf("==== %s: %s ====\n", e.id, e.title)
			e.run()
			fmt.Println()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "bsbench: no such experiment %v\n", args)
		os.Exit(2)
	}
}
