// Bench is the repository's one repeatable benchmark: it drives a real
// bsd child process over the line protocol with seeded whitepages
// traffic, verifies every reply, and prints each metric by name and unit
// (end to end by default, per layer with -trace 1). bench/README.md has
// the workloads, the metrics and how to read them; run it through
// bench/run.sh, which builds bsd and this program inside the checkout.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"boundschema/internal/ldif"
	"boundschema/internal/schemadsl"
)

// spec is one workload: how many fresh-server trials, and what each
// trial's main and probe phases send per connection at the default run
// length.
type spec struct {
	name     string
	trials   int
	checks   int // wire CHECKs per trial
	main     mix
	mainOps  int
	probe    mix // the kinds main lacks, so every metric exists on every workload
	probeOps int
}

// runSeconds is the run length the op counts below are sized for on the
// 2-vCPU sandbox (BENCHMARK.json's run_seconds); -seconds scales them.
const runSeconds = 12

const corpusEntries = 100_000

var specs = []spec{
	{name: "wp_read", trials: 3, checks: 5, main: mixRead, mainOps: 50_000, probe: mixWrite, probeOps: 500},
	{name: "wp_write", trials: 3, checks: 5, main: mixWrite, mainOps: 1_500, probe: mixRead, probeOps: 12_000},
	{name: "wp_mixed", trials: 3, checks: 5, main: mixMixed, mainOps: 7_500},
	{name: "wp_cold", trials: 5, checks: 5, main: mixWrite, mainOps: 600, probe: mixRead, probeOps: 10_000},
}

// metricDef is one row of BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"ops_per_s", "1/s"},
	{"get_p50_us", "us"}, {"get_p95_us", "us"}, {"search_p50_us", "us"}, {"commit_p50_us", "us"},
	{"rss_mb", "MB"}, {"check_ms", "ms"}, {"recover_s", "s"},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled sizes a workload for a run of the given length: op counts are
// fixed for a given -seconds, never a duration, so journal bytes, entry
// counts and ops attempted repeat exactly.
func (s spec) scaled(seconds int, quick bool) spec {
	f := float64(seconds) / runSeconds
	if quick {
		s.trials, f = 1, f/10
	}
	s.mainOps = max(int(float64(s.mainOps)*f), 50)
	if s.probeOps > 0 {
		s.probeOps = max(int(float64(s.probeOps)*f), 50)
	}
	return s
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	bsd      string
	dir      string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "wp_read, wp_write, wp_mixed or wp_cold")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the corpus and the request streams")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "run length the fixed op counts are scaled to")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "1 trial, a tenth of the ops: a smoke run, not a measurement")
	aa := flag.Bool("aa", false, "run every workload twice and compare the pairs against their bounds")
	flag.StringVar(&o.bsd, "bsd", "", "path of the bsd binary to drive (bench/run.sh builds it)")
	flag.StringVar(&o.dir, "dir", "", "scratch directory for corpus, journals and the trace")
	flag.Parse()
	o.trace = trace != 0
	if o.bsd == "" || o.dir == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: run through bench/run.sh (-bsd and -dir are required)")
		os.Exit(2)
	}
	if *aa {
		os.Exit(runAA(o))
	}
	res, err := runWorkload(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload performs one benchmark run and prints its report to w.
func runWorkload(o options, w io.Writer) (*result, error) {
	sp, ok := specByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown -workload %q", o.workload)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	}
	sp = sp.scaled(o.seconds, o.quick)
	dir, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	genStart := time.Now()
	schema, corpus := newCorpus(o.seed, corpusEntries)
	p := extractPools(corpus, rand.New(rand.NewSource(o.seed)))
	f := files{bin: o.bsd, dir: dir, schema: filepath.Join(dir, "wp.bs"), ldif: filepath.Join(dir, "corpus.ldif")}
	if err := os.WriteFile(f.schema, []byte(schemadsl.Format(schema, "whitepages")), 0o644); err != nil {
		return nil, err
	}
	if err := writeLDIF(f.ldif, func(bw *bufio.Writer) error { return ldif.WriteDirectory(bw, corpus) }); err != nil {
		return nil, err
	}
	r := newRun(sp, f, p, o.seed, o.trace)
	genS := time.Since(genStart).Seconds()
	// The in-process corpus is a third of a gigabyte the client's garbage
	// collector would otherwise scan while bsd is being timed; the traced
	// run reads it back from the LDIF file.
	schema, corpus = nil, nil
	debug.FreeOSMemory()

	fmt.Fprintf(w, "# bsd benchmark: workload=%s seed=%d seconds=%d trials=%d trace=%v quick=%v\n",
		sp.name, o.seed, o.seconds, sp.trials, o.trace, o.quick)
	fsyncUS, err := fsyncFloor(dir, fsyncRecordBytes, 200)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# %s vfs.fsync_us_p50=%.1f\n", envStamp(p.entries), fsyncUS)
	fmt.Fprintf(w, "# closed loop, %d connections, no think time; per connection per trial: warm-up %d, main %d, probe %d requests\n",
		conns, warmOps, sp.mainOps, sp.probeOps)
	fmt.Fprintln(w, "# latencies are this sandbox's (page-cache reads, virtual disk fsync), not a device's")

	if o.trace {
		return tracedRun(r, o, genS, fsyncUS, w)
	}
	var trials []*trialResult
	for n := 0; n < sp.trials; n++ {
		t, err := r.trial(n, nil, "")
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", n, err)
		}
		trials = append(trials, t)
	}
	res := &result{Metrics: make(map[string]metricValue)}
	for _, t := range trials {
		res.Attempted += t.attempted
		res.Failed += t.failed
		if t.failed > 0 {
			fmt.Fprintf(w, "FAILED: %s\n", t.firstBad)
		}
	}
	res.Correct = res.Failed == 0
	sum := summarize(r.spec, trials)
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{sum[m.name], m.unit}
		fmt.Fprintf(w, "%-16s %14s %s\n", m.name, fmtVal(sum[m.name]), m.unit)
	}
	for _, name := range []string{"setup_s", "ready_s", "check_ms", "recover_s", "rss_mb", "ops_per_s"} {
		fmt.Fprintf(w, "# per trial %-10s %s\n", name, fmtVals(trialValues(trials, name)))
	}
	fmt.Fprintf(w, "# per trial: attempted=%d commits_ok=%d illegal=%d journal_bytes=%d entries_after=%d\n",
		trials[0].attempted, r.commits, r.illegal, trials[0].journalBytes, r.entries)
	fmt.Fprintf(w, "# attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	return res, nil
}

// summarize combines the trials into the run's end-to-end values (and the
// tails and ready_s a traced run reports per layer).
//
// Traffic values are the best trial's: the lowest of the trials'
// latency percentiles, the highest of their throughputs. What disturbs a
// trial on a shared two-core sandbox (a neighbour's burst, a slow stretch
// of the host lasting seconds to a minute) only ever slows it, and hits
// one trial of three far more often than all three, so the best trial is
// the steadiest estimate of what the code costs: over ten runs in a
// disturbed hour the best trial's GET p95 spread 11%, the median trial's
// 24%, the pooled samples' 31%. Cold-path times are one measurement per
// trial that a garbage collection falling inside or outside it moves
// either way, so they are the median of the trials (setup_s as the
// benchmark contract asks; check_ms the median of each trial's fastest
// CHECK, since CHECK's own garbage makes every second to fourth one pay
// for a collection of the whole heap). RSS is the mean.
func summarize(sp spec, trials []*trialResult) map[string]float64 {
	out := make(map[string]float64)
	for _, name := range []string{"setup_s", "ready_s", "check_ms", "recover_s"} {
		out[name] = median(trialValues(trials, name))
	}
	out["ops_per_s"] = slices.Max(trialValues(trials, "ops_per_s"))
	for _, v := range trialValues(trials, "rss_mb") {
		out["rss_mb"] += v / float64(len(trials))
	}
	for k := opKind(0); k < numKinds; k++ {
		ph := phMain
		if sp.main.share(k) == 0 {
			ph = phProbe
		}
		for _, t := range trials {
			sorted := sortedCopy(t.phases[ph].lat[k])
			for _, p := range []float64{0.50, 0.95, 0.99} {
				name := fmt.Sprintf("%s_p%.0f_us", kindNames[k], p*100)
				if v := percentile(sorted, p) / 1e3; t == trials[0] || v < out[name] {
					out[name] = v
				}
			}
		}
	}
	return out
}

// trialValues lists one per-trial metric across the trials.
func trialValues(trials []*trialResult, name string) []float64 {
	vs := make([]float64, len(trials))
	for i, t := range trials {
		vs[i] = t.metrics[name]
	}
	return vs
}

// fmtVal prints one decimal for the microsecond-and-up magnitudes
// (latencies are kept in ns, so that is what was measured) and four
// significant digits for the seconds.
func fmtVal(v float64) string {
	if v >= 100 {
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

func fmtVals(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmtVal(v)
	}
	return strings.Join(parts, " ")
}

func writeLDIF(path string, write func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	// Synced now, or the kernel writes these 22 MB back half a minute
	// later, under the last trial's journal fsyncs.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// envStamp names what the numbers were measured on.
func envStamp(entries int) string {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("commit=%s nproc=%d bsd_GOMAXPROCS=%d %s kernel=%s corpus_entries=%d",
		commit, runtime.NumCPU(), runtime.NumCPU(), runtime.Version(), kernel, entries)
}
