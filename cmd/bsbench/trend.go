package main

// Trend — the cross-run report: `bsbench trend [dir]` reads every
// committed BENCH_*.json in the directory and prints each file's
// headline numbers on a couple of lines, so a reviewer (or a CI diff)
// can see the whole performance surface of a checkout without opening
// eight JSON files. Each known experiment has its own extractor keyed
// on the "experiment" field (BENCH_load.json, which has none, is
// recognized by its "runs" array); unknown files degrade to a key
// inventory rather than being skipped, so a new experiment is visible
// in the report before its extractor lands.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func runTrend(dir string) {
	files, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bsbench: trend: %v\n", err)
		os.Exit(1)
	}
	if len(files) == 0 {
		fmt.Fprintf(os.Stderr, "bsbench: trend: no BENCH_*.json under %s\n", dir)
		os.Exit(1)
	}
	sort.Strings(files)
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			fmt.Printf("%-24s unreadable: %v\n", filepath.Base(f), err)
			continue
		}
		var doc map[string]any
		if err := json.Unmarshal(buf, &doc); err != nil {
			fmt.Printf("%-24s not JSON: %v\n", filepath.Base(f), err)
			continue
		}
		exp := tstr(doc, "experiment")
		if exp == "" && len(tarr(doc, "runs")) > 0 {
			exp = "bsload"
		}
		fmt.Printf("%s  (%s, cpus=%.0f, gomaxprocs=%.0f)\n", filepath.Base(f), exp, tnum(doc, "cpus"), tnum(doc, "gomaxprocs"))
		for _, line := range trendLines(exp, doc) {
			fmt.Printf("  %s\n", line)
		}
	}
}

// trendLines picks each experiment's headline numbers. The selections
// mirror each experiment's own "shape check" line: the quantity whose
// regression would mean the subsystem's claim broke.
func trendLines(exp string, doc map[string]any) []string {
	var out []string
	switch exp {
	case "e14-parallel-legality":
		for _, r := range tarr(doc, "rows") {
			out = append(out, fmt.Sprintf("workers=%-2.0f check=%s speedup=%.2fx",
				tnum(r, "workers"), tdur(tnum(r, "check_ns")), tnum(r, "speedup_vs_sequential")))
		}
		out = append(out, fmt.Sprintf("reports_identical=%v", doc["reports_identical"]))
	case "e18-replication":
		for _, r := range tarr(doc, "reads") {
			out = append(out, fmt.Sprintf("replicas=%-2.0f %8.0f reads/s  speedup=%.2fx",
				tnum(r, "replicas"), tnum(r, "ops_per_sec"), tnum(r, "speedup_vs_primary_only")))
		}
		for _, c := range tarr(doc, "commits") {
			out = append(out, fmt.Sprintf("%-9s commit=%s/tx  slowdown=%.2fx  degraded=%v",
				tstr(c, "mode"), tdur(tnum(c, "ns_per_tx")), tnum(c, "slowdown_vs_async"), c["degraded"]))
		}
	case "e20-value-index":
		for _, p := range tarr(doc, "points") {
			out = append(out, fmt.Sprintf("entries=%-7.0f search p50=%-10s speedup vs scan=%.0fx",
				tnum(p, "entries"), tdur(tnum(p, "search_p50_ns")), tnum(p, "speedup_vs_scan_p50")))
		}
	case "e21-failover":
		for _, f := range tarr(doc, "failovers") {
			out = append(out, fmt.Sprintf("%-9s time-to-writable=%.1fms  acked_lost=%.0f",
				tstr(f, "mode"), tnum(f, "time_to_writable_ms"), tnum(f, "acked_writes_lost")))
		}
		if fc, ok := doc["fencing"].(map[string]any); ok {
			out = append(out, fmt.Sprintf("fencing: doomed_before=%.0f accepted_after=%.0f (must be 0) fence=%.2fms",
				tnum(fc, "doomed_writes_before_fence"), tnum(fc, "writes_accepted_after_fence"), tnum(fc, "time_to_fence_ms")))
		}
	case "bsload":
		var best map[string]any
		committed := 0.0
		runs := tarr(doc, "runs")
		for _, r := range runs {
			committed += tnum(r, "committed")
			if best == nil || tnum(r, "throughput_ops_per_sec") > tnum(best, "throughput_ops_per_sec") {
				best = r
			}
		}
		out = append(out, fmt.Sprintf("%d runs, %.0f committed total", len(runs), committed))
		if best != nil {
			out = append(out, fmt.Sprintf("best: %s/%s on %s  %8.0f ops/s",
				tstr(best, "scenario"), tstr(best, "mix"), tstr(best, "cluster"), tnum(best, "throughput_ops_per_sec")))
		}
		if chaos := tarr(doc, "chaos"); len(chaos) > 0 {
			out = append(out, fmt.Sprintf("%d chaos scenarios, all ending in their convergence oracle", len(chaos)))
		}
	default:
		keys := make([]string, 0, len(doc))
		for k := range doc {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out = append(out, fmt.Sprintf("no extractor; keys: %v", keys))
	}
	return out
}

// tnum/tstr/tarr are tolerant accessors over the decoded JSON: a
// missing or differently-typed field reads as zero, so one malformed
// file cannot crash the whole report.
func tnum(m map[string]any, k string) float64 {
	if v, ok := m[k].(float64); ok {
		return v
	}
	return 0
}

func tstr(m map[string]any, k string) string {
	if v, ok := m[k].(string); ok {
		return v
	}
	return ""
}

func tarr(m map[string]any, k string) []map[string]any {
	raw, ok := m[k].([]any)
	if !ok {
		return nil
	}
	var out []map[string]any
	for _, e := range raw {
		if em, ok := e.(map[string]any); ok {
			out = append(out, em)
		}
	}
	return out
}

// tdur renders nanoseconds human-readably without pretending to more
// precision than a load test has.
func tdur(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
