package shard

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/proto"
	"boundschema/internal/server"
	"boundschema/internal/vfs"
	"boundschema/internal/workload"
)

// The differential oracle: a sharded deployment (N shard servers
// behind a router) must be observationally equivalent to one unsharded
// node seeded with the same corpus — byte-identical SEARCH results
// (after canonicalizing both sides with SortDNs; a single node answers
// in tree order, the router in canonical order), identical COUNT and
// STAT totals, and CHECK/VERIFY agreeing on legality — before, during
// and after a stream of live mutations, including a shard crash and
// journal recovery. Runs under -race in CI (shard-smoke).

// diffScenario parameterizes the oracle over the two reference
// workloads: where mutated entries may be attached, and what an added
// entry looks like.
type diffScenario struct {
	name           string
	newSchema      func() *core.Schema
	newCorpus      func(s *core.Schema, rng *rand.Rand, n int) *dirtree.Directory
	containerClass string // entries that accept mutation children
	addBody        func(i int, container string) []string
	allFilter      string // matches every entry
	mainClass      string // the class mutations add
}

var diffScenarios = []diffScenario{
	{
		name:           "whitepages",
		newSchema:      workload.WhitePagesSchema,
		newCorpus:      workload.Corpus,
		containerClass: "orgUnit",
		addBody: func(i int, container string) []string {
			return []string{
				"ADD uid=m" + fmt.Sprint(i) + "," + container,
				"objectClass: person",
				"objectClass: top",
				fmt.Sprintf("name: mutation %d", i),
			}
		},
		allFilter: "(objectClass=top)",
		mainClass: "person",
	},
	{
		name:           "netpolicy",
		newSchema:      workload.NetPolicySchema,
		newCorpus:      workload.NetPolicyCorpus,
		containerClass: "subnet",
		addBody: func(i int, container string) []string {
			// Unique ipAddress: keys are shard-local in a sharded
			// deployment, so the oracle never relies on cross-shard key
			// refusal (the documented carve caveat).
			return []string{
				"ADD cn=m" + fmt.Sprint(i) + "," + container,
				"objectClass: host",
				"objectClass: netElement",
				"objectClass: top",
				fmt.Sprintf("ipAddress: 10.250.%d.%d", i/250, i%250),
			}
		},
		allFilter: "(objectClass=top)",
		mainClass: "host",
	},
}

// diffShard is one in-process shard server with the pristine carved
// instance kept aside so a crash test can rebuild the boot state and
// let journal replay bring it forward.
type diffShard struct {
	name     string
	addr     string
	roots    []string
	srv      *server.Server
	fs       *vfs.Fault
	pristine *dirtree.Directory
}

type diffCluster struct {
	t      *testing.T
	sc     diffScenario
	m      *Map
	rt     *Router
	rtAddr string
	shards map[string]*diffShard
}

const diffJournal = "journal.ldif"

// startSharded carves the corpus into nShards+default, boots a
// journaled server per shard and a router in front.
func startSharded(t *testing.T, sc diffScenario, corpusN, nShards int, seed int64) *diffCluster {
	t.Helper()
	schema := sc.newSchema()
	src := sc.newCorpus(schema, rand.New(rand.NewSource(seed)), corpusN)
	roots, err := AutoCut(schema, src, nShards)
	if err != nil {
		t.Fatalf("AutoCut: %v", err)
	}
	var carved []*Shard
	for i, rs := range roots {
		if len(rs) > 0 {
			carved = append(carved, &Shard{Name: fmt.Sprintf("s%d", i), Addr: "pending", Roots: rs})
		}
	}
	if len(carved) == 0 {
		t.Fatal("AutoCut carved nothing; corpus too small for the oracle")
	}
	cutMap := mustMap(t, carved, &Shard{Name: "rest", Addr: "pending"})
	dirs, err := Carve(src, cutMap)
	if err != nil {
		t.Fatalf("Carve: %v", err)
	}
	c := &diffCluster{t: t, sc: sc, shards: map[string]*diffShard{}}
	var withAddrs []*Shard
	var defShard *Shard
	for _, sh := range cutMap.All() {
		ds := &diffShard{name: sh.Name, roots: sh.Roots, pristine: dirs[sh.Name].Clone()}
		c.bootShard(ds, dirs[sh.Name], "")
		c.shards[sh.Name] = ds
		bound := &Shard{Name: sh.Name, Addr: ds.addr, Roots: sh.Roots}
		if len(sh.Roots) == 0 {
			defShard = bound
		} else {
			withAddrs = append(withAddrs, bound)
		}
	}
	c.m = mustMap(t, withAddrs, defShard)
	c.rt = NewRouter(c.m)
	addr, err := c.rt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("router listen: %v", err)
	}
	c.rtAddr = addr
	t.Cleanup(func() {
		c.rt.Close()
		for _, ds := range c.shards {
			ds.srv.Close()
		}
	})
	return c
}

// bootShard starts (or, with a fixed addr, restarts) one shard server
// over dir. The fault FS carries the journal across restarts.
func (c *diffCluster) bootShard(ds *diffShard, dir *dirtree.Directory, addr string) {
	c.t.Helper()
	if ds.fs == nil {
		ds.fs = vfs.NewFault()
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	srv, err := server.Open(server.Options{Schema: c.sc.newSchema(), Name: c.sc.name, Instance: dir,
		Addr: addr, Journal: diffJournal, FS: ds.fs, ShardName: ds.name, ShardRoots: ds.roots})
	if err != nil {
		c.t.Fatalf("shard %s: %v", ds.name, err)
	}
	ds.srv, ds.addr = srv, srv.Addr()
}

// crashShard kills one shard server; restartShard rebuilds it from the
// pristine carved instance plus journal replay, on the same address
// (the map is static).
func (c *diffCluster) crashShard(name string) {
	c.shards[name].srv.Close()
}

func (c *diffCluster) restartShard(name string) {
	ds := c.shards[name]
	c.bootShard(ds, ds.pristine.Clone(), ds.addr)
}

// dialTest returns a protocol client for a router or shard address.
// Every read from the socket gets a fresh deadline, so a reply that never
// comes fails the test in seconds instead of hanging it.
func dialTest(t *testing.T, addr string) *proto.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { conn.Close() })
	return proto.NewConn(deadlineConn{conn})
}

// replyTimeout bounds each socket read of a test client.
const replyTimeout = 5 * time.Second

type deadlineConn struct{ net.Conn }

func (c deadlineConn) Read(p []byte) (int, error) {
	if err := c.SetReadDeadline(time.Now().Add(replyTimeout)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func doCmd(t *testing.T, c *proto.Conn, line string) proto.Reply {
	t.Helper()
	r, err := c.Do(line)
	if err != nil {
		t.Fatalf("%q: transport error: %v", line, err)
	}
	return r
}

// txn replays one transaction: BEGIN, body, COMMIT, returning the
// COMMIT reply.
func txn(t *testing.T, c *proto.Conn, body ...string) proto.Reply {
	t.Helper()
	r, err := c.Txn(body)
	if err != nil {
		t.Fatalf("txn %v: transport error: %v", body, err)
	}
	return r
}

// mutTxn applies the same transaction to the router and the reference
// node and insists both land the same way.
func mutTxn(t *testing.T, ref, rtc *proto.Conn, body ...string) {
	t.Helper()
	r1 := txn(t, ref, body...)
	r2 := txn(t, rtc, body...)
	if r1.Term != r2.Term {
		t.Fatalf("divergence on %v: reference %s %s, router %s %s", body, r1.Term, r1.Err, r2.Term, r2.Err)
	}
	if r1.Term != "OK" {
		t.Fatalf("mutation %v did not apply: %s %s", body, r1.Term, r1.Err)
	}
}

func canon(lines []string) string {
	out := append([]string(nil), lines...)
	SortDNs(out)
	return strings.Join(out, "\n")
}

// assertEquivalent runs the query battery against both endpoints.
func assertEquivalent(t *testing.T, ref, rtc *proto.Conn, c *diffCluster) {
	t.Helper()
	sc := c.sc
	spineRoot := c.m.Spine()[0]
	carvedRoot := c.m.Shards[0].Roots[0]

	searches := []string{
		"SEARCH " + sc.allFilter,
		"SEARCH (objectClass=" + sc.mainClass + ")",
		"SEARCH " + sc.allFilter + " base=" + spineRoot,
		"SEARCH (objectClass=" + sc.mainClass + ") base=" + carvedRoot,
	}
	for _, q := range searches {
		r1, r2 := doCmd(t, ref, q), doCmd(t, rtc, q)
		if r1.Term != "OK" || r2.Term != "OK" {
			t.Fatalf("%q: reference %s %s, router %s %s", q, r1.Term, r1.Err, r2.Term, r2.Err)
		}
		if canon(r1.Lines) != canon(r2.Lines) {
			t.Fatalf("%q diverged:\nreference (%d):\n%s\nrouter (%d):\n%s",
				q, len(r1.Lines), canon(r1.Lines), len(r2.Lines), canon(r2.Lines))
		}
		// The router's merge order is canonical already.
		if q == searches[0] && strings.Join(r2.Lines, "\n") != canon(r2.Lines) {
			t.Fatalf("router SEARCH output not in canonical DN order:\n%s", strings.Join(r2.Lines, "\n"))
		}
	}

	// Post-merge limit: the first N of the canonical order,
	// deterministic regardless of which shard answered first.
	full := doCmd(t, rtc, "SEARCH "+sc.allFilter)
	lim := doCmd(t, rtc, "SEARCH "+sc.allFilter+" limit=5")
	if !lim.OK() || len(lim.Lines) != 5 {
		t.Fatalf("limited search: %s %s (%d lines)", lim.Term, lim.Err, len(lim.Lines))
	}
	if strings.Join(lim.Lines, "\n") != strings.Join(full.Lines[:5], "\n") {
		t.Fatalf("limit is not the canonical prefix:\n%v\nvs\n%v", lim.Lines, full.Lines[:5])
	}

	counts := []string{
		"COUNT " + sc.mainClass,
		"COUNT " + sc.containerClass,
		"COUNT " + sc.mainClass + " base=" + spineRoot,
		"COUNT " + sc.containerClass + " child base=" + spineRoot,
		"COUNT " + sc.mainClass + " base=" + carvedRoot,
	}
	for _, q := range counts {
		r1, r2 := doCmd(t, ref, q), doCmd(t, rtc, q)
		if r1.Term != "OK" || r2.Term != "OK" {
			t.Fatalf("%q: reference %s %s, router %s %s", q, r1.Term, r1.Err, r2.Term, r2.Err)
		}
		if strings.Join(r1.Lines, "\n") != strings.Join(r2.Lines, "\n") {
			t.Fatalf("%q diverged: reference %v, router %v", q, r1.Lines, r2.Lines)
		}
	}

	// Aggregated STAT must report the single node's entry total (ghost
	// correction) and the same per-class counts.
	s1, s2 := doCmd(t, ref, "STAT"), doCmd(t, rtc, "STAT")
	if !s1.OK() || !s2.OK() {
		t.Fatalf("STAT: reference %s, router %s", s1.Term, s2.Term)
	}
	for _, prefix := range []string{"entries: ", "class "} {
		var want, got []string
		for _, l := range s1.Lines {
			if strings.HasPrefix(l, prefix) {
				want = append(want, l)
			}
		}
		for _, l := range s2.Lines {
			if strings.HasPrefix(l, prefix) {
				got = append(got, l)
			}
		}
		if strings.Join(want, "\n") != strings.Join(got, "\n") {
			t.Fatalf("STAT %q lines diverged:\nreference %v\nrouter %v", prefix, want, got)
		}
	}

	// Both sides agree the instance is legal — the router's CHECK also
	// runs the coordinator's cross-shard audit over the spine.
	for _, q := range []string{"CHECK", "VERIFY"} {
		r1, r2 := doCmd(t, ref, q), doCmd(t, rtc, q)
		if r1.Term != "OK" || r2.Term != "OK" {
			t.Fatalf("%s: reference %s %v %s, router %s %v %s",
				q, r1.Term, r1.Lines, r1.Err, r2.Term, r2.Lines, r2.Err)
		}
	}
}

// containersByShard groups the corpus's mutation containers by owning
// shard so moves can stay shard-confined on purpose.
func containersByShard(t *testing.T, ref *proto.Conn, c *diffCluster) (all []string, byShard map[string][]string) {
	t.Helper()
	r := doCmd(t, ref, "SEARCH (objectClass="+c.sc.containerClass+")")
	if !r.OK() {
		t.Fatalf("container search: %s %s", r.Term, r.Err)
	}
	all = append([]string(nil), r.Lines...)
	SortDNs(all)
	byShard = map[string][]string{}
	for _, dn := range all {
		if sh := c.m.Owner(dn); sh != nil {
			byShard[sh.Name] = append(byShard[sh.Name], dn)
		}
	}
	return all, byShard
}

func runDiffOracle(t *testing.T, sc diffScenario, withCrash bool) {
	const corpusN, nShards, seed = 260, 3, 42

	c := startSharded(t, sc, corpusN, nShards, seed)

	// The reference: one unsharded node over the identical corpus (same
	// generator, same seed).
	refSchema := sc.newSchema()
	refSrv, err := server.Open(server.Options{Schema: refSchema, Name: sc.name,
		Instance: sc.newCorpus(refSchema, rand.New(rand.NewSource(seed)), corpusN), Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("reference server: %v", err)
	}
	t.Cleanup(func() { refSrv.Close() })
	refAddr := refSrv.Addr()

	ref, rtc := dialTest(t, refAddr), dialTest(t, c.rtAddr)
	assertEquivalent(t, ref, rtc, c)

	all, byShard := containersByShard(t, ref, c)
	if len(all) == 0 {
		t.Fatal("corpus has no mutation containers")
	}

	// 60 live mutations: adds everywhere, deletes and shard-confined
	// moves of our own entries, equivalence re-checked periodically.
	type added struct{ dn, container string }
	var live []added
	rng := rand.New(rand.NewSource(seed + 1))
	const mutations = 60
	crashAt, recoverAt := -1, -1
	if withCrash {
		crashAt, recoverAt = 20, 30
	}
	for i := 0; i < mutations; i++ {
		if i == crashAt {
			c.crashShard(c.m.Shards[0].Name)
			assertCrashVisible(t, c)
			rtc = dialTest(t, c.rtAddr) // the battery may have poisoned framing; fresh session
		}
		if i == recoverAt {
			c.restartShard(c.m.Shards[0].Name)
		}
		down := ""
		if i >= crashAt && i < recoverAt && crashAt >= 0 {
			down = c.m.Shards[0].Name
		}
		switch {
		case i%6 == 4 && len(live) > 0:
			// Delete one of ours (never a seeded entry: containers keep
			// their corpus-seeded children, preserving →de bounds).
			j := rng.Intn(len(live))
			if c.m.Owner(live[j].dn).Name == down {
				continue
			}
			mutTxn(t, ref, rtc, "DELETE "+live[j].dn)
			live = append(live[:j], live[j+1:]...)
		case i%6 == 5 && len(live) > 0:
			// Move one of ours to a sibling container on the same shard.
			moved := false
			for j, a := range live {
				owner := c.m.Owner(a.dn)
				peers := byShard[owner.Name]
				if owner.Name == down || len(peers) < 2 {
					continue
				}
				dest := peers[rng.Intn(len(peers))]
				if dest == a.container {
					continue
				}
				mutTxn(t, ref, rtc, "MOVE "+a.dn+" -> "+dest)
				rdn, _, _ := strings.Cut(a.dn, ",")
				live[j] = added{dn: rdn + "," + dest, container: dest}
				moved = true
				break
			}
			if moved {
				break
			}
			fallthrough
		default:
			container := all[i%len(all)]
			if c.m.Owner(container).Name == down {
				container = all[(i+1)%len(all)]
				if c.m.Owner(container).Name == down {
					continue
				}
			}
			mutTxn(t, ref, rtc, sc.addBody(i, container)...)
			live = append(live, added{dn: firstDN(sc.addBody(i, container)[0]), container: container})
		}
		if i%15 == 14 && (crashAt < 0 || i < crashAt || i >= recoverAt) {
			assertEquivalent(t, ref, rtc, c)
		}
	}
	assertEquivalent(t, ref, rtc, c)
}

func firstDN(addLine string) string {
	return strings.TrimSpace(strings.TrimPrefix(addLine, "ADD "))
}

// assertCrashVisible pins the degraded-mode contract while one shard is
// down: fan-out reads fail with one parseable ERR naming the shard,
// and traffic confined to the surviving shards keeps working.
func assertCrashVisible(t *testing.T, c *diffCluster) {
	t.Helper()
	rtc := dialTest(t, c.rtAddr)
	// The first fan-out may still relay the dying shard's graceful
	// "server shutting down" off a pooled connection; once dials are
	// refused the router must say the shard is unavailable. Either way,
	// every reply is one payload-free ERR line.
	var r proto.Reply
	for attempt := 0; attempt < 3; attempt++ {
		r = doCmd(t, rtc, "SEARCH "+c.sc.allFilter)
		if r.Term != "ERR" {
			t.Fatalf("fan-out with a dead shard: want ERR, got %s %v", r.Term, r.Lines)
		}
		if len(r.Lines) != 0 {
			t.Fatalf("ERR reply carried payload lines: %v", r.Lines)
		}
		if strings.Contains(r.Err, "unavailable") {
			break
		}
		if !strings.Contains(r.Err, "shutting down") {
			t.Fatalf("unexpected ERR while shard down: %q", r.Err)
		}
	}
	if !strings.Contains(r.Err, "unavailable") {
		t.Fatalf("dead shard never reported unavailable: %q", r.Err)
	}
	if len(c.m.Shards) > 1 {
		alive := c.m.Shards[1].Roots[0]
		r = doCmd(t, rtc, "SEARCH "+c.sc.allFilter+" base="+alive)
		if !r.OK() {
			t.Fatalf("surviving shard unreachable through router: %s %s", r.Term, r.Err)
		}
	}
}

func TestShardDiffOracleWhitePages(t *testing.T) {
	runDiffOracle(t, diffScenarios[0], false)
}

func TestShardDiffOracleNetPolicy(t *testing.T) {
	runDiffOracle(t, diffScenarios[1], false)
}

// TestShardDiffOracleCrashRecovery kills one shard mid-stream, checks
// the degraded contract, restarts it from the pristine carve plus
// journal replay, and requires full equivalence afterwards.
func TestShardDiffOracleCrashRecovery(t *testing.T) {
	runDiffOracle(t, diffScenarios[0], true)
}
