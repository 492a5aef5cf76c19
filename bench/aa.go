package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the A/A comparison needs.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name  string
		Unit  string
		Bound float64
	} `json:"end_to_end"`
}

// runAA runs every workload twice back to back on the same commit and
// seed and prints, per workload and end-to-end metric, both values, their
// relative difference and the bound from BENCHMARK.json. It returns 1 if
// a pair differs by more than its bound or an operation failed: identical
// code must agree with itself before a bound can gate anything else.
func runAA(o options) int {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -aa reads the bounds from BENCHMARK.json: %v\n", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "bench: BENCHMARK.json: %v\n", err)
		return 1
	}
	fmt.Printf("# A/A: two runs of the same commit\n\n`%s seed=%d seconds=%d`\n\n", envStamp(corpusEntries), o.seed, o.seconds)
	fmt.Println("| workload | metric | unit | run A | run B | difference | bound | |")
	fmt.Println("|---|---|---|---:|---:|---:|---:|---|")
	status := 0
	for _, wl := range bf.Workloads {
		o.workload = wl.Name
		var runs [2]*result
		for i := range runs {
			if runs[i], err = runWorkload(o, io.Discard); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.Name, err)
				return 1
			}
			if !runs[i].Correct {
				fmt.Printf("| %s | run %d: %d of %d operations failed | | | | | | FAIL |\n", wl.Name, i, runs[i].Failed, runs[i].Attempted)
				status = 1
			}
		}
		verdict := "ok"
		if runs[0].Attempted != runs[1].Attempted {
			verdict, status = "FAIL", 1
		}
		fmt.Printf("| %s | attempted | count | %d | %d | | exact | %s |\n", wl.Name, runs[0].Attempted, runs[1].Attempted, verdict)
		for _, m := range bf.EndToEnd {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			diff := math.Abs(b-a) / a
			verdict := "ok"
			if diff > m.Bound {
				verdict, status = "FAIL", 1
			}
			fmt.Printf("| %s | %s | %s | %s | %s | %.1f%% | %.0f%% | %s |\n",
				wl.Name, m.Name, m.Unit, fmtVal(a), fmtVal(b), 100*diff, 100*m.Bound, verdict)
		}
	}
	return status
}
