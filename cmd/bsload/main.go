// Bsload is the YCSB-style load driver for bsd: N concurrent workers
// run a configurable create/read/update/delete/query mix over the wire
// against a live server (or an embedded single node / primary+replica
// cluster it starts itself), with schema-respecting entries generated
// for the whitepages, netpolicy and semistructured scenarios. It
// records client-side latency histograms (p50/p95/p99/max), throughput,
// an error taxonomy (redirects, non-durable commits, read-only
// refusals, connection errors), and the server's own METRICS view.
//
// Usage:
//
//	bsload                           # embedded: every scenario × preset, single node
//	bsload -replicas 2               # embedded 1-primary/2-replica cluster
//	bsload -shards 2                 # embedded carved shards behind a router
//	bsload -scenario netpolicy -mix olap -workers 16 -entries 100000
//	bsload -addr 127.0.0.1:3890 -scenario whitepages -mix oltp
//	bsload -chaos all                # failover, disk faults, conn storms, shard crash
//	bsload -json load.json           # write all results as JSON
//
// Mixes: oltp (c10/r90), olap (c90/r10), reporting (c5/r10/u3/d2/q80
// range-SEARCH heavy), churn (c30/r30/u15/d10/q15). Every chaos
// scenario ends with the convergence oracle: surviving nodes must be
// byte-identical where expected, pass VERIFY over the wire, and the
// final instance must be proved legal by the full (non-incremental)
// engine with all three engines in agreement.
//
// Against an external -addr the driver cannot extract DN pools from the
// corpus, so it requires the server to have been seeded by bsgen with
// the same -scenario and -entries (the pools are re-derived from a
// locally generated twin corpus, which is deterministic per seed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"boundschema/internal/loadgen"
	"boundschema/internal/repl"
	"boundschema/internal/vfs"
)

var (
	scenarioName = flag.String("scenario", "all", "whitepages, netpolicy, semistructured, or all")
	mixName      = flag.String("mix", "all", "oltp, olap, reporting, churn, or all")
	workers      = flag.Int("workers", 8, "concurrent load workers")
	ops          = flag.Int("ops", 2000, "ops per worker (ignored when -duration is set)")
	duration     = flag.Duration("duration", 0, "wall-clock bound instead of an op budget")
	entries      = flag.Int("entries", 10000, "embedded corpus size (10k-1M)")
	replicas     = flag.Int("replicas", 0, "embedded replicas behind the primary (reads fan out to them)")
	shards       = flag.Int("shards", 0, "embedded subtree shards carved from the corpus, fronted by a router (plus a default shard)")
	modeName     = flag.String("mode", "async", "embedded replication mode: async or semisync")
	seed         = flag.Int64("seed", 1, "deterministic corpus and mix seed")
	addr         = flag.String("addr", "", "drive an external server at this client address instead of an embedded one")
	readAddrs    = flag.String("read-addrs", "", "comma-separated replica client addresses for reads (external mode)")
	chaos        = flag.String("chaos", "none", "failover, fault-crash, fault-torn-write, fault-sync-error, connstorm, shardcrash, all, or none")
	jsonOut      = flag.String("json", "", "write results as JSON to this file")
)

// output is the bench JSON envelope.
type output struct {
	GeneratedAt string                 `json:"generated_at"`
	CPUs        int                    `json:"cpus"`
	Gomaxprocs  int                    `json:"gomaxprocs"`
	Runs        []*loadgen.Result      `json:"runs,omitempty"`
	Chaos       []*loadgen.ChaosReport `json:"chaos,omitempty"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bsload:", err)
	os.Exit(1)
}

func scenarios() []*loadgen.Scenario {
	if *scenarioName == "all" {
		return loadgen.Scenarios()
	}
	sc, ok := loadgen.ScenarioByName(*scenarioName)
	if !ok {
		fatal(fmt.Errorf("unknown scenario %q", *scenarioName))
	}
	return []*loadgen.Scenario{sc}
}

func mixes() []loadgen.Mix {
	if *mixName == "all" {
		return loadgen.Presets()
	}
	m, ok := loadgen.PresetByName(*mixName)
	if !ok {
		fatal(fmt.Errorf("unknown mix %q", *mixName))
	}
	return []loadgen.Mix{m}
}

func main() {
	flag.Parse()
	out := &output{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		CPUs:        runtime.NumCPU(),
		Gomaxprocs:  runtime.GOMAXPROCS(0),
	}

	switch {
	case *chaos != "none":
		runChaos(out)
	case *addr != "":
		runExternal(out)
	case *shards > 0:
		runSharded(out)
	default:
		runEmbedded(out)
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("bsload: wrote %s\n", *jsonOut)
	}
}

// runEmbedded starts its own node(s) per scenario and drives every
// selected mix against them.
func runEmbedded(out *output) {
	mode := repl.Async
	if *modeName == "semisync" {
		mode = repl.SemiSync
	}
	for _, sc := range scenarios() {
		cl, err := loadgen.StartCluster(sc, *entries, *replicas, *seed, mode)
		if err != nil {
			fatal(err)
		}
		cluster := "single"
		if *replicas > 0 {
			cluster = fmt.Sprintf("1p+%dr", *replicas)
		}
		for i, mix := range mixes() {
			res, err := loadgen.Run(loadgen.Options{
				Scenario: sc, Pools: cl.Pools, Mix: mix,
				Workers: *workers, OpsPerWorker: *ops, Duration: *duration,
				Seed: *seed, FirstWorker: i * 100,
				CorpusEntries: cl.CorpusEntries, Cluster: cluster,
			}, cl.Target())
			if err != nil {
				cl.Close()
				fatal(err)
			}
			report(res)
			out.Runs = append(out.Runs, res)
		}
		// Every embedded run ends with the convergence oracle.
		if err := loadgen.Converge(cl.Nodes(), 30*time.Second); err != nil {
			cl.Close()
			fatal(err)
		}
		if err := loadgen.Oracle(cl.Schema, cl.Nodes()); err != nil {
			cl.Close()
			fatal(err)
		}
		fmt.Printf("  oracle: %d node(s) byte-identical, VERIFY ok, full engine agrees\n", len(cl.Nodes()))
		cl.Close()
	}
}

// runSharded carves each scenario's corpus into -shards subtree shards
// plus a default, boots a journaled server per shard behind a router,
// and drives the selected mixes at the router as if it were one node.
// Every run ends with the sharded oracle: per-shard VERIFY, the
// router's cross-shard CHECK, and the reconstructed global instance
// proved legal with the entry accounting closed.
func runSharded(out *output) {
	for _, sc := range scenarios() {
		cl, err := loadgen.StartShardCluster(sc, *entries, *shards, *seed)
		if err != nil {
			fatal(err)
		}
		cluster := fmt.Sprintf("router+%dsh", len(cl.Shards))
		for i, mix := range mixes() {
			res, err := loadgen.Run(loadgen.Options{
				Scenario: sc, Pools: cl.Pools, Mix: mix,
				Workers: *workers, OpsPerWorker: *ops, Duration: *duration,
				Seed: *seed, FirstWorker: i * 100,
				CorpusEntries: cl.CorpusEntries, Cluster: cluster,
			}, loadgen.NewTarget(cl.Addr))
			if err != nil {
				cl.Close()
				fatal(err)
			}
			report(res)
			out.Runs = append(out.Runs, res)
		}
		if err := cl.Oracle(); err != nil {
			cl.Close()
			fatal(err)
		}
		fmt.Printf("  oracle: %d shard(s) VERIFY ok, router CHECK ok, merged instance legal\n", len(cl.Shards))
		cl.Close()
	}
}

// runExternal drives a live bsd; the DN pools are re-derived from a
// deterministic twin of the corpus the server was seeded with.
func runExternal(out *output) {
	var reads []string
	if *readAddrs != "" {
		reads = strings.Split(*readAddrs, ",")
	}
	target := loadgen.NewTarget(*addr, reads...)
	for _, sc := range scenarios() {
		schema := sc.NewSchema()
		corpus := sc.NewCorpus(schema, rand.New(rand.NewSource(*seed)), *entries)
		pools := sc.ExtractPools(corpus)
		cluster := "external"
		if len(reads) > 0 {
			cluster = fmt.Sprintf("external 1p+%dr", len(reads))
		}
		for i, mix := range mixes() {
			res, err := loadgen.Run(loadgen.Options{
				Scenario: sc, Pools: pools, Mix: mix,
				Workers: *workers, OpsPerWorker: *ops, Duration: *duration,
				Seed: *seed, FirstWorker: i * 100,
				CorpusEntries: *entries, Cluster: cluster,
			}, target)
			if err != nil {
				fatal(err)
			}
			report(res)
			out.Runs = append(out.Runs, res)
		}
	}
}

// runChaos executes the selected chaos scenario(s) embedded.
func runChaos(out *output) {
	dur := *duration
	if dur == 0 {
		dur = 3 * time.Second
	}
	want := func(name string) bool { return *chaos == "all" || *chaos == name }
	for _, sc := range scenarios() {
		cfg := loadgen.ChaosConfig{
			Scenario: sc, CorpusN: *entries, Workers: *workers,
			Duration: dur, Seed: *seed,
		}
		run := func(name string, f func() (*loadgen.ChaosReport, error)) {
			if !want(name) {
				return
			}
			rep, err := f()
			if err != nil {
				fatal(fmt.Errorf("%s/%s: %v", sc.Name, name, err))
			}
			fmt.Printf("chaos %-16s %-14s committed=%-6d errors=%v\n", name, sc.Name, rep.Load.Committed, rep.Load.Errors)
			for _, n := range rep.Notes {
				fmt.Printf("  %s\n", n)
			}
			out.Chaos = append(out.Chaos, rep)
		}
		run("failover", func() (*loadgen.ChaosReport, error) { return loadgen.Failover(cfg) })
		run("fault-crash", func() (*loadgen.ChaosReport, error) { return loadgen.FaultUnderLoad(cfg, vfs.FaultCrash) })
		run("fault-torn-write", func() (*loadgen.ChaosReport, error) { return loadgen.FaultUnderLoad(cfg, vfs.FaultTornWrite) })
		run("fault-sync-error", func() (*loadgen.ChaosReport, error) { return loadgen.FaultUnderLoad(cfg, vfs.FaultSyncErr) })
		run("connstorm", func() (*loadgen.ChaosReport, error) { return loadgen.ConnStorm(cfg) })
		run("shardcrash", func() (*loadgen.ChaosReport, error) {
			n := *shards
			if n == 0 {
				n = 2
			}
			return loadgen.ShardCrash(cfg, n)
		})
	}
}

func report(r *loadgen.Result) {
	fmt.Printf("%-14s %-10s %2d workers  %7.0f ops/s  committed=%-6d", r.Scenario, r.Mix, r.Workers, r.Throughput, r.Committed)
	if st, ok := r.PerOp["read"]; ok {
		fmt.Printf("  read p50=%dus p99=%dus", st.P50us, st.P99us)
	}
	if st, ok := r.PerOp["create"]; ok {
		fmt.Printf("  create p50=%dus p99=%dus", st.P50us, st.P99us)
	}
	if len(r.Errors) > 0 {
		fmt.Printf("  errors=%v", r.Errors)
	}
	fmt.Println()
}
