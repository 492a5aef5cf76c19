package loadgen

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"boundschema/internal/core"
	"boundschema/internal/ldif"
	"boundschema/internal/repl"
	"boundschema/internal/vfs"
)

// asyncRepl is repl's zero Mode: a primary ships segments after its local
// fsync and acknowledges COMMIT without waiting for a replica.
const asyncRepl repl.Mode = 0

// The chaos battery: each scenario runs real traffic against a real
// cluster, injures it mid-run (role flip, disk fault, dropped
// connections, a dead shard), and ends with the convergence oracle.

// churn is the deck every run cycles unless a test pins one op kind
// (the steady-state single-kind decks, the create-only fault runs):
// c30/r30/u15/d10/q15, every class including the restructuring MOVEs
// and subtree DELETEs that stress Theorem 4.1 normalization.
var churn = func() []opKind {
	var deck []opKind
	for kind, n := range [...]int{opCreate: 30, opRead: 30, opUpdate: 15, opDelete: 10, opQuery: 15} {
		for i := 0; i < n; i++ {
			deck = append(deck, opKind(kind))
		}
	}
	return deck
}()

// load is the one traffic driver: workers goroutines, each with its own
// write and read connection, cycle a shuffled copy of deck through the
// scenario's op source until the deadline. A worker re-dials whenever
// write names a new address, so a test repoints traffic by changing
// what write returns; redirects are counted, never followed.
type load struct {
	sc      *Scenario
	pools   *Pools
	workers int
	deck    []opKind
	write   func() string // the current write address
	reads   []string      // worker w reads from reads[w%len(reads)]; none = the write address
	redial  int           // drop and re-dial both connections every redial ops (0 = never)
}

// tally is a run's outcome: the commits OK'd, the reads and queries
// answered OK, and every failure by its classify label.
type tally struct {
	committed int
	reads     int
	errs      map[string]int
}

// at is a write function for a fixed address.
func at(addr string) func() string { return func() string { return addr } }

// run drives the workers for d and merges their tallies.
func (l load) run(d time.Duration) tally {
	until := time.Now().Add(d)
	sum := tally{errs: map[string]int{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := l.worker(w, until)
			mu.Lock()
			defer mu.Unlock()
			sum.committed += t.committed
			sum.reads += t.reads
			for k, n := range t.errs {
				sum.errs[k] += n
			}
		}(w)
	}
	wg.Wait()
	return sum
}

func (l load) worker(w int, until time.Time) tally {
	rng := rand.New(rand.NewSource(int64(w+1) * 7919))
	src := l.sc.newSource(l.pools, w, rng)
	deck := append([]opKind(nil), l.deck...)
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	t := tally{errs: map[string]int{}}
	var wc, rc *Client
	var wAddr string
	drop := func(c **Client) {
		if *c != nil {
			(*c).Close()
			*c = nil
		}
	}
	defer drop(&wc)
	defer drop(&rc)
	dial := func(c **Client, addr string) bool {
		var err error
		if *c, err = Dial(addr); err != nil {
			t.errs[errConn]++
			time.Sleep(5 * time.Millisecond)
			return false
		}
		return true
	}

	for i := 0; time.Now().Before(until); i++ {
		if l.redial > 0 && i%l.redial == 0 {
			drop(&wc)
			drop(&rc)
		}
		op, ok := src.Op(deck[i%len(deck)])
		if !ok { // update/delete with nothing owned yet
			op, _ = src.Op(opCreate)
		}

		if op.Cmd != "" { // read/query on the read connection
			if rc == nil {
				addr := l.write()
				if len(l.reads) > 0 {
					addr = l.reads[w%len(l.reads)]
				}
				if !dial(&rc, addr) {
					continue
				}
			}
			resp, err := rc.Do(op.Cmd)
			cls := classify(resp, err)
			if cls == "" {
				t.reads++
				continue
			}
			t.errs[cls]++
			if err != nil {
				drop(&rc)
			}
			continue
		}

		if addr := l.write(); wc == nil || addr != wAddr {
			drop(&wc)
			if !dial(&wc, addr) {
				continue
			}
			wAddr = addr
		}
		resp, err := wc.Txn(op.Tx)
		cls := classify(resp, err)
		if op.Applied != nil {
			op.Applied(cls == "")
		}
		if cls == "" {
			t.committed++
			continue
		}
		t.errs[cls]++
		// A refused or broken transaction may leave replies unread; start
		// the next one on a fresh connection.
		drop(&wc)
	}
	return t
}

// chaosSize sizes a chaos run for CI: short enough for the -race smoke
// job, long enough that the injury lands mid-traffic. LOADGEN_FULL=1
// stretches the runs for the nightly matrix.
func chaosSize() (corpusN, workers int, d time.Duration) {
	if full() {
		return 5000, 8, 8 * time.Second
	}
	return 300, 4, 1500 * time.Millisecond
}

// chaosSeed seeds every chaos corpus.
const chaosSeed = 11

// TestChaosFailover repoints writes at a replica (they bounce with
// redirects), kills the primary, and PROMOTEs that replica while the
// workers still race it. The promoted node must take commits, end
// byte-identical with a fresh replica hung off it, and the orphaned
// second replica must still serve a legal instance.
func TestChaosFailover(t *testing.T) {
	corpusN, workers, d := chaosSize()
	sc, _ := ScenarioByName("whitepages")
	cl, err := StartCluster(sc, corpusN, 2, chaosSeed, asyncRepl)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	r0, r1 := cl.Replicas[0], cl.Replicas[1]
	var repointed atomic.Bool
	traffic := load{sc: sc, pools: cl.Pools, workers: workers, deck: churn,
		write: func() string {
			if repointed.Load() {
				return r0.Addr
			}
			return cl.Primary.Addr
		},
		reads: []string{r0.Addr, r1.Addr}}
	done := make(chan tally, 1)
	go func() { done <- traffic.run(d) }()

	time.Sleep(d * 2 / 5)
	repointed.Store(true)
	time.Sleep(30 * time.Millisecond) // r0 is still a replica: writes bounce
	cl.Primary.Srv.Close()
	if err := promote(r0.Addr, 10*time.Second); err != nil {
		<-done
		t.Fatal(err)
	}
	promotedAt := seqOf(r0)
	res := <-done
	t.Logf("failover: committed=%d errors=%v", res.committed, res.errs)
	if res.errs[errRedirect] == 0 {
		t.Error("no write bounced off the replica before its promotion")
	}
	if seqOf(r0) <= promotedAt {
		t.Fatalf("no commit landed on the promoted node after seq %d", promotedAt)
	}

	// The promoted node opens its own replication listener and a fresh
	// replica catches up from it; both must converge byte-identically.
	replAddr, err := r0.Srv.ListenRepl("127.0.0.1:0")
	if err != nil {
		t.Fatalf("repl listener on promoted node: %v", err)
	}
	fresh, err := cl.addReplica("post-failover", replAddr, r0.Addr)
	if err != nil {
		t.Fatalf("fresh replica: %v", err)
	}
	if err := converge([]*Node{r0, fresh}, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := oracle(cl.Schema, []*Node{r0, fresh}); err != nil {
		t.Fatal(err)
	}
	// The orphan kept streaming from a dead primary; whatever prefix it
	// holds must still be a legal instance.
	if err := legalInstance(cl.Schema, r1); err != nil {
		t.Fatalf("orphaned replica: %v", err)
	}
}

// TestChaosFaultsUnderLoad scripts each fault kind into a single node's
// journal mid-load, lets the run play out against the injured server,
// then pulls the plug, recovers the durable state and restarts. Every
// COMMIT a worker saw OK'd must survive recovery (recovered sequence ≥
// OK count), and the recovered instance must pass the oracle.
func TestChaosFaultsUnderLoad(t *testing.T) {
	for _, kind := range []vfs.FaultKind{vfs.FaultCrash, vfs.FaultTornWrite, vfs.FaultSyncErr} {
		t.Run(kind.String(), func(t *testing.T) {
			corpusN, workers, d := chaosSize()
			sc, _ := ScenarioByName("netpolicy")
			cl, err := StartCluster(sc, corpusN, 0, chaosSeed, asyncRepl)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			// A create-only deck keeps every worker's next op a journal
			// write, so commits are in flight when the scripted fault lands.
			done := make(chan tally, 1)
			go func() {
				done <- load{sc: sc, pools: cl.Pools, workers: workers, deck: []opKind{opCreate},
					write: at(cl.Primary.Addr)}.run(d)
			}()

			time.Sleep(d * 2 / 5)
			fs := cl.Primary.FS
			fs.SetScript(vfs.FaultPoint{Op: fs.OpCount() + 3, Kind: kind})
			res := <-done
			t.Logf("committed=%d errors=%v", res.committed, res.errs)

			// Power loss: volatile state gone, durable state survives.
			cl.Primary.Srv.Close()
			fs.Recover()
			node, schema, err := cl.restartNode("recovered", fs)
			if err != nil {
				t.Fatal(err)
			}
			defer node.Srv.Close()
			if got := seqOf(node); got < uint64(res.committed) {
				t.Fatalf("durability violated: %d commits were OK'd but recovery reached seq %d", res.committed, got)
			}
			if err := oracle(schema, []*Node{node}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChaosConnStorm runs a 1-primary/2-replica cluster where every
// worker drops and re-dials its connections every few ops while the
// replication links are repeatedly severed mid-stream. The streaming
// loop's reconnect-and-handshake path must heal every gap: the cluster
// ends converged and byte-identical.
func TestChaosConnStorm(t *testing.T) {
	corpusN, workers, d := chaosSize()
	sc, _ := ScenarioByName("semistructured")
	cl, err := StartCluster(sc, corpusN, 2, chaosSeed, asyncRepl)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	traffic := load{sc: sc, pools: cl.Pools, workers: workers, deck: churn, write: at(cl.Primary.Addr),
		reads: []string{cl.Replicas[0].Addr, cl.Replicas[1].Addr}, redial: 7}
	done := make(chan tally, 1)
	go func() { done <- traffic.run(d) }()

	sever := time.NewTicker(d / 10)
	defer sever.Stop()
	drops := 0
	var res tally
	for res.errs == nil {
		select {
		case res = <-done:
		case <-sever.C:
			cl.Replicas[drops%2].Srv.DisconnectReplication()
			drops++
		}
	}
	t.Logf("replication links severed %d times; committed=%d errors=%v", drops, res.committed, res.errs)
	if res.committed == 0 {
		t.Fatal("no commits during the storm")
	}
	if err := converge(cl.nodes(), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := oracle(cl.Schema, cl.nodes()); err != nil {
		t.Fatal(err)
	}
}

// TestOracleRejectsDivergence shows the battery's judge can fail: two
// nodes booted from one seed disagree after one commit lands on only
// one of them, and a journal with a flipped bit fails VERIFY.
func TestOracleRejectsDivergence(t *testing.T) {
	sc, _ := ScenarioByName("whitepages")
	boot := func(t *testing.T) *Cluster {
		cl, err := StartCluster(sc, 100, 0, chaosSeed, asyncRepl)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		return cl
	}
	commit := func(t *testing.T, cl *Cluster, uid string) {
		c, err := Dial(cl.Primary.Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		resp, err := c.Txn([]string{"ADD uid=" + uid + "," + cl.Pools.Parents[0],
			"objectClass: person", "objectClass: top", "name: divergent " + uid})
		if err != nil || !resp.OK() {
			t.Fatalf("commit %s: %s %s %v", uid, resp.Term, resp.Err, err)
		}
	}

	t.Run("one-commit-apart", func(t *testing.T) {
		a, b := boot(t), boot(t)
		if err := oracle(a.Schema, []*Node{a.Primary, b.Primary}); err != nil {
			t.Fatalf("twins booted from one seed: %v", err)
		}
		commit(t, a, "d1")
		err := oracle(a.Schema, []*Node{a.Primary, b.Primary})
		if err == nil || !strings.Contains(err.Error(), "serve different instances") {
			t.Fatalf("oracle over diverged nodes: %v", err)
		}
	})

	t.Run("bit-flip", func(t *testing.T) {
		cl := boot(t)
		fs := cl.Primary.FS
		// The next write is the first commit's record; two more commits
		// put the flipped record mid-log, where no torn tail excuses it.
		fs.SetScript(vfs.FaultPoint{Op: fs.OpCount() + 1, Kind: vfs.FaultBitFlip})
		for _, uid := range []string{"f1", "f2", "f3"} {
			commit(t, cl, uid)
		}
		err := oracle(cl.Schema, cl.nodes())
		if err == nil || !strings.Contains(err.Error(), "VERIFY") {
			t.Fatalf("oracle over a bit-flipped journal: %v", err)
		}
	})
}

// promote sends PROMOTE, retrying while the replica sorts itself out.
// "not a replica" counts as success: someone else's PROMOTE won the
// race.
func promote(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c, err := Dial(addr)
		if err == nil {
			resp, derr := c.Do("PROMOTE")
			c.Close()
			if derr == nil && (resp.OK() || strings.Contains(resp.Err, "not a replica")) {
				return nil
			}
			err = fmt.Errorf("PROMOTE: %s %s", resp.Term, resp.Err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("promote %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// legalInstance re-parses one node's served instance and checks it with
// the full engine — the weaker oracle for nodes that legitimately lag
// (an orphaned replica whose primary died).
func legalInstance(schema *core.Schema, n *Node) error {
	ld, err := nodeLDIF(n)
	if err != nil {
		return err
	}
	d, err := ldif.ReadDirectory(strings.NewReader(ld), schema.Registry)
	if err != nil {
		return err
	}
	if r := core.NewChecker(schema).Check(d); !r.Legal() {
		return fmt.Errorf("instance illegal:\n%s", r)
	}
	return nil
}
