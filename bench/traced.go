package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// fsyncRecordBytes is the size of the record the fsync floor writes,
// about one journal record of these workloads.
const fsyncRecordBytes = 256

// tracedRun is the -trace 1 run: the same seed and request streams as
// the plain run, one untraced and one traced wire trial, then the
// in-process pass over the layers. It prints every per-layer metric and
// the self time per layer, and writes the spans to the run directory.
func tracedRun(r *run, o options, genS, fsyncUS float64, w io.Writer) (*result, error) {
	plain, err := r.trial(0, nil, "")
	if err != nil {
		return nil, fmt.Errorf("untraced trial: %w", err)
	}
	tr := newTracer()
	journal := filepath.Join(r.files.dir, "journal-traced.ldif")
	traced, err := r.trial(1, tr, journal)
	if err != nil {
		return nil, fmt.Errorf("traced trial: %w", err)
	}
	res := &result{Metrics: make(map[string]metricValue)}
	for _, t := range []*trialResult{plain, traced} {
		res.Attempted += t.attempted
		res.Failed += t.failed
		if t.failed > 0 {
			fmt.Fprintf(w, "FAILED: %s\n", t.firstBad)
		}
	}

	out := map[string]float64{
		"workload.corpus_gen_s":        genS,
		"trace.overhead_pct":           100 * (1 - traced.metrics["ops_per_s"]/plain.metrics["ops_per_s"]),
		"txn.journal_bytes_per_commit": float64(traced.journalBytes) / float64(max(r.commits, 1)),
		"server.commits_per_fsync":     traced.perFsync,
		"vfs.fsync_us_p50":             fsyncUS,
		"server.read_wait_us_p95": (percentile(sortedCopy(traced.phases[phContend].lat[kGet]), 0.95) -
			percentile(sortedCopy(traced.phases[phIdle].lat[kGet]), 0.95)) / 1e3,
	}
	sum := summarize(r.spec, []*trialResult{plain, traced})
	out["bsd.ready_s"] = sum["ready_s"]
	for _, name := range []string{"get_p99_us", "search_p95_us", "search_p99_us", "commit_p95_us", "commit_p99_us"} {
		out["wire."+name] = sum[name]
	}
	if out["wire.loopback_rtt_us_p50"], err = loopbackRTT(5000); err != nil {
		return nil, err
	}
	if err := layerPass(r, tr, traced, journal, out); err != nil {
		res.Failed++
		fmt.Fprintf(w, "FAILED: %v\n", err)
	}
	if err := shardLayer(r.seed, out); err != nil {
		return nil, fmt.Errorf("shard layer: %w", err)
	}
	if err := replLayer(r.seed, out); err != nil {
		return nil, fmt.Errorf("repl layer: %w", err)
	}
	res.Correct = res.Failed == 0

	spans := tr.spans()
	path := filepath.Join(o.dir, "trace-"+r.spec.name+".jsonl")
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# %d spans in %s; self time per layer (span minus children):\n", len(spans), path)
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	for _, l := range layers {
		fmt.Fprintf(w, "#   %-8s %10.1f ms\n", l, float64(self[l])/1e6)
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{out[m.name], m.unit}
		fmt.Fprintf(w, "%-32s %14s %s\n", m.name, fmtVal(out[m.name]), m.unit)
	}
	fmt.Fprintf(w, "# wire trial: commits_ok=%d illegal=%d journal_bytes=%d entries_after=%d\n",
		r.commits, r.illegal, traced.journalBytes, r.entries)
	fmt.Fprintf(w, "# attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	return res, nil
}

// copyFile copies src to dst.
func copyFile(dst, src string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}
