package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/filter"
	"boundschema/internal/hquery"
	"boundschema/internal/ldif"
	"boundschema/internal/loadgen"
	"boundschema/internal/repl"
	"boundschema/internal/server"
	"boundschema/internal/txn"
	"boundschema/internal/vfs"
	"boundschema/internal/workload"
)

// perLayer lists the traced run's metrics in BENCHMARK.json's order. The
// layer is the package the timed call belongs to; bench/README.md says
// which end-to-end metric each should move.
var perLayer = []metricDef{
	{"wire.loopback_rtt_us_p50", "us"}, {"server.get_overhead_us", "us"}, {"server.parse_search_ns_p50", "ns"},
	{"dirtree.bydn_ns_p50", "ns"}, {"ldif.render_ns_per_get", "ns"},
	{"filter.parse_ns_p50", "ns"}, {"hquery.plan_ns_p50", "ns"}, {"hquery.eval_us_p50", "us"}, {"hquery.eval_us_p99", "us"},
	{"hquery.est_per_result", "ratio"}, {"hquery.index_share", "ratio"}, {"dirtree.index_probe_ns_p50", "ns"},
	{"txn.parse_us_p50", "us"}, {"txn.normalize_us_p50", "us"}, {"txn.apply_us_p50", "us"}, {"txn.apply_us_p95", "us"},
	{"txn.illegal_rejects", "count"}, {"dirtree.insert_patch_us_p50", "us"}, {"dirtree.delete_patch_us_p50", "us"},
	{"txn.encode_us_p50", "us"}, {"txn.journal_bytes_per_commit", "bytes"}, {"vfs.fsync_us_p50", "us"},
	{"server.committx_us_p50", "us"}, {"server.commits_per_fsync", "ratio"}, {"server.read_wait_us_p95", "us"},
	{"ldif.parse_us_per_entry", "us"}, {"core.consistency_us", "us"},
	{"core.check_ms", "ms"}, {"core.check_content_ms", "ms"}, {"core.check_structure_ms", "ms"},
	{"core.keyindex_build_ms", "ms"}, {"dirtree.encode_ms", "ms"},
	{"dirtree.index_build_ms.name", "ms"}, {"dirtree.index_build_ms.mail", "ms"},
	{"server.recover_us_per_commit", "us"}, {"dirtree.heap_bytes_per_entry", "bytes"},
	{"shard.route_get_us_p50", "us"}, {"shard.fanout_search_us_p50", "us"}, {"repl.semisync_ack_us_p50", "us"},
	{"workload.corpus_gen_s", "s"}, {"trace.overhead_pct", "%"},
	// Too unsteady on the sandbox for an end-to-end bound (README.md,
	// "Deviations"), so reported here from the two wire trials.
	{"bsd.ready_s", "s"}, {"wire.get_p99_us", "us"}, {"wire.search_p95_us", "us"}, {"wire.search_p99_us", "us"},
	{"wire.commit_p95_us", "us"}, {"wire.commit_p99_us", "us"},
}

// samples collects durations in ns under a metric's stem.
type samples map[string][]int64

func (s samples) add(name string, ns int64) { s[name] = append(s[name], ns) }

// q is the p-quantile of a stem's samples, in ns.
func (s samples) q(name string, p float64) float64 { return percentile(sortedCopy(s[name]), p) }

// timeIt runs f and returns how long it took in ns.
func timeIt(f func()) int64 {
	t0 := time.Now()
	f()
	return int64(time.Since(t0))
}

// medianOf runs f n times and returns the median duration in ns.
func medianOf(n int, f func()) float64 {
	ds := make([]float64, n)
	for i := range ds {
		ds[i] = float64(timeIt(f))
	}
	return median(ds)
}

// fsyncFloor is the device floor under a commit: the median time of
// writing size bytes to a file in dir and syncing it, through vfs.OS as
// the journal does.
func fsyncFloor(dir string, size, n int) (float64, error) {
	path := filepath.Join(dir, "fsync-probe")
	f, err := vfs.OS{}.OpenAppend(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	rec := bytes.Repeat([]byte{'x'}, size)
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		if _, err := f.Write(rec); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0)) / 1e3
	}
	return median(ds), nil
}

// loadCorpus reads the run's LDIF back, as a booting bsd does.
func loadCorpus(path string, reg *dirtree.Registry) (*dirtree.Directory, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ldif.ReadDirectory(bufio.NewReaderSize(f, 1<<20), reg)
}

// buildTx turns a request's body lines into the transaction a session
// would have assembled from them.
func buildTx(lines []string, reg *dirtree.Registry) (*txn.Transaction, error) {
	tx := &txn.Transaction{}
	var dn string
	var classes []string
	var attrs map[string][]dirtree.Value
	flush := func() {
		if dn != "" {
			tx.Add(dn, classes, attrs)
		}
		dn, classes, attrs = "", nil, nil
	}
	for _, l := range lines {
		switch cmd, rest, _ := strings.Cut(l, " "); cmd {
		case "ADD":
			flush()
			dn, attrs = rest, make(map[string][]dirtree.Value)
		case "DELETE":
			flush()
			tx.Delete(rest)
		case "MOVE":
			flush()
			from, to, _ := strings.Cut(rest, " -> ")
			tx.Move(from, to)
		default:
			name, value, _ := strings.Cut(l, ": ")
			if name == dirtree.AttrObjectClass {
				classes = append(classes, value)
				continue
			}
			v, err := dirtree.ParseValue(reg.Type(name), value)
			if err != nil {
				return nil, err
			}
			attrs[name] = append(attrs[name], v)
		}
	}
	flush()
	return tx, nil
}

// renderGet produces a GET reply's payload the way the session does.
func renderGet(w *bufio.Writer, e *dirtree.Entry) {
	w.WriteString("dn: " + e.DN() + "\n")
	for _, name := range e.AttrNames() {
		for _, v := range e.Attr(name) {
			w.WriteString(name + ": " + v.String() + "\n")
		}
	}
}

// replayReads caps the reads the in-process replay times. It replays
// every transaction, because later requests depend on the state they leave.
const replayReads = 20_000

// layerPass replays connection 0's requests against the layers' public
// functions stage by stage, each stage a child span of its request, and
// times the cold-path builders on a corpus read back from the LDIF file.
// traced is the wire trial whose journal and counters it explains.
func layerPass(r *run, tr *tracer, traced *trialResult, journal string, out map[string]float64) error {
	s := samples{}
	schema := workload.WhitePagesSchema()

	// Cold path, in the order a booting bsd runs it.
	out["core.consistency_us"] = medianOf(5, func() { core.CheckConsistency(schema) }) / 1e3
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var d *dirtree.Directory
	var err error
	parse := timeIt(func() { d, err = loadCorpus(r.files.ldif, schema.Registry) })
	if err != nil {
		return err
	}
	out["ldif.parse_us_per_entry"] = float64(parse) / 1e3 / float64(d.Len())
	out["dirtree.encode_ms"] = float64(timeIt(d.EnsureEncoded)) / 1e6
	checker := core.NewChecker(schema)
	out["core.check_ms"] = medianOf(3, func() { checker.Check(d) }) / 1e6
	out["core.check_content_ms"] = medianOf(3, func() { checker.CheckContent(d) }) / 1e6
	out["core.check_structure_ms"] = medianOf(3, func() { checker.CheckStructure(d) }) / 1e6
	out["core.keyindex_build_ms"] = float64(timeIt(func() { core.NewKeyIndex(schema, d) })) / 1e6
	out["dirtree.index_build_ms.name"] = float64(timeIt(func() { d.ValuePrefixEntries("name", "person 1") })) / 1e6
	out["dirtree.index_build_ms.mail"] = float64(timeIt(func() { d.ValueEntries("mail", dirtree.String("p2-0@example.org")) })) / 1e6
	runtime.GC()
	runtime.ReadMemStats(&m1)
	out["dirtree.heap_bytes_per_entry"] = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(d.Len())

	// Value-index probes and leaf patches on the encoded directory.
	rng := rand.New(rand.NewSource(r.seed))
	for i := 0; i < 2000; i++ {
		dn := r.pools.persons[rng.Intn(len(r.pools.persons))]
		name := dirtree.String("person " + dn[len("uid=p"):strings.IndexByte(dn, ',')])
		s.add("probe", timeIt(func() { d.ValueEntries("name", name) }))
	}
	out["dirtree.index_probe_ns_p50"] = s.q("probe", 0.5)
	for i := 0; i < 500; i++ {
		parent := d.ByDN(r.pools.parents[rng.Intn(len(r.pools.parents))])
		var e *dirtree.Entry
		s.add("insert", timeIt(func() {
			e, err = d.AddChild(parent, fmt.Sprintf("uid=patch%d", i), "person", "top")
			d.EnsureEncoded()
		}))
		if err != nil {
			return err
		}
		s.add("delete", timeIt(func() {
			err = d.DeleteLeaf(e)
			d.EnsureEncoded()
		}))
		if err != nil {
			return err
		}
	}
	out["dirtree.insert_patch_us_p50"] = s.q("insert", 0.5) / 1e3
	out["dirtree.delete_patch_us_p50"] = s.q("delete", 0.5) / 1e3

	// Stage-by-stage replay.
	applier := txn.NewApplier(schema)
	applier.Counts = txn.NewCountIndex(d)
	applier.NarrowDeletes = true
	jf, err := vfs.OS{}.OpenAppend(filepath.Join(r.files.dir, "layer-journal"))
	if err != nil {
		return err
	}
	defer jf.Close()
	sink := bufio.NewWriter(io.Discard)
	var reads, rejects, searches, indexed, est, results int
	var renderNS int64
	var gets int
	stage := func(name string, parent int, f func()) {
		id := tr.begin(name, parent)
		f()
		s.add(name, tr.end(id))
	}
	stream := append(append([]req(nil), r.warm[0]...), r.phases[phMain].streams[0]...)
	stream = append(stream, r.phases[phProbe].streams[0]...)
	for i := range stream {
		q := &stream[i]
		switch {
		case q.Kind == kGet && reads < replayReads:
			reads++
			root := tr.begin("req.get", 0)
			var e *dirtree.Entry
			stage("dirtree.bydn", root, func() { e = d.ByDN(q.Cmd[len("GET "):]) })
			if (e != nil) != (q.Term == "OK") {
				return fmt.Errorf("in-process %s: found=%v, want %s", q.Cmd, e != nil, q.Term)
			}
			if e != nil {
				gets++
				id := tr.begin("ldif.render", root)
				renderGet(sink, e)
				renderNS += tr.end(id)
			}
			s.add("get", tr.end(root))
		case q.Kind == kSearch && reads < replayReads:
			reads++
			searches++
			root := tr.begin("req.search", 0)
			var args server.SearchArgs
			var f filter.Filter
			var plan hquery.Plan
			var matches []*dirtree.Entry
			stage("server.parse_search", root, func() { args, err = server.ParseSearchArgs(q.Cmd[len("SEARCH "):]) })
			if err != nil {
				return err
			}
			stage("filter.parse", root, func() { f, err = filter.Parse(args.Filter) })
			if err != nil {
				return err
			}
			view := d.SubtreeView(d.ByDN(args.Base))
			stage("hquery.plan", root, func() { plan = hquery.PlanSelect(f, view) })
			stage("hquery.eval", root, func() { matches, _ = hquery.EvalSelect(f, view) })
			stage("ldif.render_search", root, func() {
				for i, e := range matches {
					if args.Limit >= 0 && i >= args.Limit {
						break
					}
					sink.WriteString(e.DN() + "\n")
				}
			})
			tr.end(root)
			n := len(matches)
			if args.Limit >= 0 {
				n = min(n, args.Limit)
			}
			if n != q.N {
				return fmt.Errorf("in-process %s: %d results, want %d", q.Cmd, n, q.N)
			}
			if plan.Strategy != "scan" {
				indexed++
			}
			est += plan.Est
			results += len(matches)
		case q.Kind == kCommit:
			root := tr.begin("req.commit", 0)
			tx, err := buildTx(q.Tx, schema.Registry)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			stage("txn.normalize", root, func() { _, err = txn.Normalize(d, tx) })
			var report *core.Report
			if err == nil {
				stage("txn.apply", root, func() {
					report, _, err = applier.ApplyWithUndo(d, tx)
					d.EnsureEncoded()
				})
			}
			if err != nil {
				return fmt.Errorf("in-process commit %v: %w", q.Tx, err)
			}
			if legal := report.Legal(); legal != (q.Term == "OK") {
				return fmt.Errorf("in-process commit %v: legal=%v, want %s", q.Tx, legal, q.Term)
			}
			if q.Term != "OK" {
				rejects++
				tr.end(root)
				continue
			}
			stage("txn.encode", root, func() { err = tx.WriteChanges(&buf) })
			if err != nil {
				return err
			}
			stage("vfs.fsync", root, func() {
				if _, err = jf.Write(buf.Bytes()); err == nil {
					err = jf.Sync()
				}
			})
			if err != nil {
				return err
			}
			tr.end(root)
			// The recovery path parses the record back.
			s.add("txn.parse", timeIt(func() {
				var recs []*ldif.Record
				if recs, err = ldif.NewReader(bytes.NewReader(buf.Bytes())).ReadAll(); err == nil {
					_, err = txn.FromRecords(recs, schema.Registry)
				}
			}))
			if err != nil {
				return err
			}
		}
	}
	out["dirtree.bydn_ns_p50"] = s.q("dirtree.bydn", 0.5)
	out["ldif.render_ns_per_get"] = float64(renderNS) / float64(max(gets, 1))
	out["server.parse_search_ns_p50"] = s.q("server.parse_search", 0.5)
	out["filter.parse_ns_p50"] = s.q("filter.parse", 0.5)
	out["hquery.plan_ns_p50"] = s.q("hquery.plan", 0.5)
	out["hquery.eval_us_p50"] = s.q("hquery.eval", 0.5) / 1e3
	out["hquery.eval_us_p99"] = s.q("hquery.eval", 0.99) / 1e3
	out["hquery.est_per_result"] = float64(est) / float64(max(results, 1))
	out["hquery.index_share"] = float64(indexed) / float64(max(searches, 1))
	out["txn.parse_us_p50"] = s.q("txn.parse", 0.5) / 1e3
	out["txn.normalize_us_p50"] = s.q("txn.normalize", 0.5) / 1e3
	out["txn.apply_us_p50"] = s.q("txn.apply", 0.5) / 1e3
	out["txn.apply_us_p95"] = s.q("txn.apply", 0.95) / 1e3
	out["txn.illegal_rejects"] = float64(rejects)
	out["txn.encode_us_p50"] = s.q("txn.encode", 0.5) / 1e3

	// What the wire GET adds to the lookup and render it wraps.
	idle := sortedCopy(traced.phases[phIdle].lat[kGet])
	out["server.get_overhead_us"] = (percentile(idle, 0.5) - s.q("get", 0.5)) / 1e3
	d, applier = nil, nil
	runtime.GC()

	// Recovery and the in-process commit path, on a second copy of the
	// corpus: replay the traced trial's journal, then commit on top of it.
	d2, err := loadCorpus(r.files.ldif, schema.Registry)
	if err != nil {
		return err
	}
	srv, err := server.New(schema, "whitepages", d2)
	if err != nil {
		return err
	}
	defer srv.Close()
	replay := timeIt(func() { err = srv.OpenJournal(journal) })
	if err != nil {
		return fmt.Errorf("replay %s: %w", journal, err)
	}
	out["server.recover_us_per_commit"] = float64(replay) / 1e3 / float64(max(r.commits, 1))
	g := newConnGen(r.seed, conns, r.pools) // a namespace no connection used
	for _, q := range g.stream(mixWrite, 300) {
		tx, err := buildTx(q.Tx, schema.Registry)
		if err != nil {
			return err
		}
		var report *core.Report
		s.add("committx", timeIt(func() { report, err = srv.CommitTx(tx) }))
		if err != nil || report.Legal() != (q.Term == "OK") {
			return fmt.Errorf("CommitTx %v: %v, want %s", q.Tx, err, q.Term)
		}
	}
	out["server.committx_us_p50"] = s.q("committx", 0.5) / 1e3
	return nil
}

// loopbackRTT is the floor under every wire latency: loadgen.Client.Do
// against a listener in this process that answers OK to every line.
func loopbackRTT(n int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			if _, err := conn.Write([]byte("OK\n")); err != nil {
				return
			}
		}
	}()
	rtt, err := doP50(ln.Addr().String(), []string{"GET uid=p1,o=org0"}, n)
	ln.Close() // releases the goroutine if the dial never reached it
	<-done
	return rtt, err
}

// doP50 is the median latency in µs of n commands, taken in turn from
// cmds, over one connection to addr. Every reply must be OK.
func doP50(addr string, cmds []string, n int) (float64, error) {
	c, err := loadgen.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	lat := make([]int64, n)
	for i := range lat {
		t0 := time.Now()
		resp, err := c.Do(cmds[i%len(cmds)])
		if err != nil || !resp.OK() {
			return 0, fmt.Errorf("%s -> %s %s %v", cmds[i%len(cmds)], resp.Term, resp.Err, err)
		}
		lat[i] = int64(time.Since(t0))
	}
	return p50us(lat), nil
}

// Size of the in-process topologies below. They have no end-to-end row:
// a router and two shards, or a primary and a replica, next to the
// client on two cores measure the scheduler. The rows stay so the router
// and replica paths have a before and after.
const topologyEntries = 5000

// shardLayer measures what the router adds: GET and fan-out SEARCH
// through a 2-shard in-process cluster minus the same command sent to a
// shard directly.
func shardLayer(seed int64, out map[string]float64) error {
	sc, _ := loadgen.ScenarioByName("whitepages")
	c, err := loadgen.StartShardCluster(sc, topologyEntries, 2, seed)
	if err != nil {
		return err
	}
	defer c.Close()
	// GETs owned by one shard, so the direct run has one address.
	owner := c.Map.Owner(c.Pools.Reads[0])
	var gets []string
	for _, dn := range c.Pools.Reads {
		if c.Map.Owner(dn) == owner {
			gets = append(gets, "GET "+dn)
		}
	}
	routed, err := doP50(c.Addr, gets, 3000)
	if err != nil {
		return err
	}
	direct, err := doP50(owner.Addr, gets, 3000)
	if err != nil {
		return err
	}
	out["shard.route_get_us_p50"] = routed - direct
	search := []string{"SEARCH (objectClass=organization)"}
	if routed, err = doP50(c.Addr, search, 1000); err != nil {
		return err
	}
	if direct, err = doP50(c.Map.Default.Addr, search, 1000); err != nil {
		return err
	}
	out["shard.fanout_search_us_p50"] = routed - direct
	return nil
}

// replLayer measures what waiting for a replica's ack adds to a commit:
// 1 primary + 1 semi-sync replica on the fault-injectable in-memory file
// system, minus a single node on the same.
func replLayer(seed int64, out map[string]float64) error {
	sc, _ := loadgen.ScenarioByName("whitepages")
	commitP50 := func(replicas int) (float64, error) {
		c, err := loadgen.StartCluster(sc, topologyEntries, replicas, seed, repl.SemiSync)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		cl, err := loadgen.Dial(c.Primary.Addr)
		if err != nil {
			return 0, err
		}
		defer cl.Close()
		lat := make([]int64, 300)
		for i := range lat {
			body := []string{fmt.Sprintf("ADD uid=r%d,%s", i, c.Pools.Parents[i%len(c.Pools.Parents)]),
				"objectClass: person", "objectClass: top", "name: repl person"}
			t0 := time.Now()
			resp, err := cl.Txn(body)
			if err != nil || !resp.OK() {
				return 0, fmt.Errorf("semi-sync commit -> %s %s %v", resp.Term, resp.Err, err)
			}
			lat[i] = int64(time.Since(t0))
		}
		return p50us(lat), nil
	}
	with, err := commitP50(1)
	if err != nil {
		return err
	}
	without, err := commitP50(0)
	if err != nil {
		return err
	}
	out["repl.semisync_ack_us_p50"] = with - without
	return nil
}
