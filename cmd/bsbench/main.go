// Bsbench regenerates the paper's analytical results (DESIGN.md
// experiment index). The paper's evaluation is analytical — worked
// example, translation tables and theorems — so each experiment either
// re-derives a table (Figures 4 and 5), validates an equivalence over
// randomized inputs, or measures the complexity shape a theorem claims.
//
// Usage:
//
//	bsbench all            # run every experiment
//	bsbench e1 ... e10     # run one experiment
//	bsbench -quick all     # smaller sweeps (CI-sized)
//	bsbench trend [dir]    # cross-run headline report over BENCH_*.json
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
//	e14 parallel legality engine: sequential vs sharded Check
//	e17 crash recovery: cold-start cost vs journal length
//	e18 streaming replication: read fan-out and the semi-sync write price
//	e20 attribute-value indexes: SEARCH latency vs instance size
//	e21 epoch-fenced failover: time-to-writable, acked-write loss, fencing
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

// envInfo stamps every experiment JSON with the hardware context and
// the scenario/schema the numbers were measured on, so committed
// baselines are comparable across machines and corpora.
type envInfo struct {
	CPUs       int    `json:"cpus"`
	Gomaxprocs int    `json:"gomaxprocs"`
	Scenario   string `json:"scenario"`
}

func env(scenario string) envInfo {
	return envInfo{CPUs: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0), Scenario: scenario}
}

var (
	quick                = flag.Bool("quick", false, "smaller sweeps")
	parallel             = flag.Int("parallel", 0, "extra worker count for e14 (0 = GOMAXPROCS sweep only)")
	jsonOut              = flag.String("json", "", "write e14 results as JSON to this file")
	jsonE17              = flag.String("json-e17", "", "write e17 results as JSON to this file")
	jsonE18              = flag.String("json-e18", "", "write e18 results as JSON to this file")
	jsonE20              = flag.String("json-e20", "", "write e20 results as JSON to this file")
	jsonE21              = flag.String("json-e21", "", "write e21 results as JSON to this file")
	checkRecoveryScaling = flag.Bool("check-recovery-scaling", false,
		"e17: exit non-zero unless ns/replayed-commit at the largest journal is < 3x the smallest (regression gate)")
	checkIndexScaling = flag.Bool("check-index-scaling", false,
		"e20: exit non-zero unless index-probe p50 at the largest instance is < 3x the smallest (regression gate)")
)

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
		{"e12", "Ablation: extension rules vs pairwise reconstruction", runE11},
		{"e13", "Section 7: schema-aided query optimization", runE12},
		{"e14", "Parallel legality engine: sequential vs sharded Check", runE13},
		// e15 (metrics overhead) and e19 (bsload convergence) live in
		// EXPERIMENTS.md as Go benchmarks / the bsload harness; e16 and
		// e22 measured against the per-transaction commit path and were
		// retired with it. Ids here match the doc's section numbers.
		{"e17", "Crash recovery: cold-start cost vs journal length", runE17},
		{"e18", "Streaming replication: read fan-out and the semi-sync write price", runE18},
		{"e20", "Attribute-value indexes: SEARCH latency vs instance size", runE20},
		{"e21", "Epoch-fenced failover: time-to-writable, acked-write loss, fencing", runE21},
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: bsbench [-quick] all | e1 ... e14 | e17 | e18 | e20 | e21 | trend [dir]")
		os.Exit(2)
	}
	if args[0] == "trend" {
		dir := "."
		if len(args) > 1 {
			dir = args[1]
		}
		runTrend(dir)
		return
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
