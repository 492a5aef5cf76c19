package core

import (
	"fmt"
	"sort"

	"boundschema/internal/dirtree"
)

// Differential-testing oracle: the Checker's one engine must agree with
// itself across chunk widths and with three independent references on
// every instance.
//
//   - the Checker at one worker (Concurrency = 1) and at a wider pool
//     (Concurrency > 1) must produce byte-identical reports, which pins
//     the merge order of chunks and per-element jobs (see parallel.go);
//   - naiveContentCheck (naive.go), every entry decided from scratch,
//     must produce CheckContent's report byte for byte at both widths;
//   - naiveKeyCheck (naive.go), a plain pre-order map scan, must produce
//     CheckKeys' report byte for byte at both widths;
//   - the quadratic NaiveStructureCheck (naive.go) must produce the same
//     structure verdict and, witness caps aside, the same violation set.
//
// DiffEngines is driven over randomized workload directories by the
// harness in difforacle_test.go.

// DiffEngines cross-checks the engines on one (schema, instance) pair.
// concurrency is the wide checker's worker count (values > 1 exercise the
// chunk merge even on tiny instances); maxWitnesses is applied to both
// checkers. It returns a descriptive error on the first divergence found,
// nil when all engines agree.
func DiffEngines(s *Schema, d *dirtree.Directory, concurrency, maxWitnesses int) error {
	if concurrency < 2 {
		return fmt.Errorf("difforacle: concurrency %d does not widen the worker pool", concurrency)
	}
	one := NewChecker(s)
	one.Concurrency = 1
	one.MaxWitnesses = maxWitnesses
	wide := NewChecker(s)
	wide.Concurrency = concurrency
	wide.MaxWitnesses = maxWitnesses

	// Byte-identical full reports.
	oneReport := one.Check(d)
	wideReport := wide.Check(d)
	if or, wr := oneReport.String(), wideReport.String(); or != wr {
		return fmt.Errorf("difforacle: reports diverge across worker counts\n--- 1 worker ---\n%s\n--- %d workers ---\n%s", or, concurrency, wr)
	}
	if oneReport.Truncated != wideReport.Truncated {
		return fmt.Errorf("difforacle: truncation flags diverge: 1 worker=%v %d workers=%v", oneReport.Truncated, concurrency, wideReport.Truncated)
	}

	// Content reference: byte-identical content reports at both widths.
	naiveContent := naiveContentCheck(s, d).String()
	for _, c := range []*Checker{one, wide} {
		if got := c.CheckContent(d).String(); got != naiveContent {
			return fmt.Errorf("difforacle: content reports diverge at %d worker(s)\n--- naive ---\n%s\n--- CheckContent ---\n%s", c.Concurrency, naiveContent, got)
		}
	}

	// Key reference: byte-identical key reports at both widths.
	naiveKeys := naiveKeyCheck(s, d).String()
	for _, c := range []*Checker{one, wide} {
		if got := c.CheckKeys(d).String(); got != naiveKeys {
			return fmt.Errorf("difforacle: key reports diverge at %d worker(s)\n--- naive ---\n%s\n--- CheckKeys ---\n%s", c.Concurrency, naiveKeys, got)
		}
	}

	// Naive quadratic structure oracle: identical verdict always, and an
	// identical sorted violation set when no witness cap interferes.
	naive := NaiveStructureCheck(s, d)
	structOne := one.CheckStructure(d)
	if naive.Legal() != structOne.Legal() {
		return fmt.Errorf("difforacle: naive structure verdict %v != query-based %v", naive.Legal(), structOne.Legal())
	}
	if maxWitnesses == 0 {
		ns, qs := sortedViolationStrings(naive), sortedViolationStrings(structOne)
		if len(ns) != len(qs) {
			return fmt.Errorf("difforacle: naive found %d structure violations, query-based %d", len(ns), len(qs))
		}
		for i := range ns {
			if ns[i] != qs[i] {
				return fmt.Errorf("difforacle: structure violation sets diverge at #%d:\nnaive:       %s\nquery-based: %s", i, ns[i], qs[i])
			}
		}
	}
	return nil
}

// sortedViolationStrings renders a report's violations sorted by their
// string form — the stable key the engines are compared under.
func sortedViolationStrings(r *Report) []string {
	out := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		out[i] = v.String()
	}
	sort.Strings(out)
	return out
}
