package loadgen

import (
	"os"
	"strings"
	"testing"
	"time"

	"boundschema/internal/repl"
)

// full reports whether the nightly/manual matrix is enabled
// (LOADGEN_FULL=1); the default sizes keep the suite CI-fast.
func full() bool { return os.Getenv("LOADGEN_FULL") != "" }

func corpusSize() int {
	if full() {
		return 10000
	}
	return 400
}

// steady is how long a steady-state run drives its traffic.
func steady() time.Duration {
	if full() {
		return 2 * time.Second
	}
	return 100 * time.Millisecond
}

// TestSingleNodeEveryScenarioEveryOpKind drives every scenario with
// every single-kind deck against a journaled single node, with the
// infer-nothing property (nothing the generators produce may come back
// ILLEGAL) and the full convergence oracle at the end. Update and
// delete decks fall back to creates while nothing is owned, so every
// kind but read and query commits; read and query decks must be
// answered. A stable node never drops a connection or misses a DN.
func TestSingleNodeEveryScenarioEveryOpKind(t *testing.T) {
	for _, sc := range scenarios() {
		for kind := opCreate; kind <= opQuery; kind++ {
			t.Run(sc.Name+"/"+kind.String(), func(t *testing.T) {
				cl, err := StartCluster(sc, corpusSize(), 0, 1, asyncRepl)
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				res := load{sc: sc, pools: cl.Pools, workers: 4, deck: []opKind{kind},
					write: at(cl.Primary.Addr)}.run(steady())
				if n := res.errs[errIllegal]; n > 0 {
					t.Fatalf("generator produced %d ILLEGAL batches — schema-respecting ops must never be rejected", n)
				}
				if n := res.errs[errOther]; n > 0 {
					t.Fatalf("%d unclassified ERR replies under load", n)
				}
				if n := res.errs[errConn] + res.errs[errNotFound]; n > 0 {
					t.Fatalf("%d conn/not_found failures on a stable node: %v", n, res.errs)
				}
				if kind == opRead || kind == opQuery {
					if res.reads == 0 {
						t.Fatal("read deck got no OK answer")
					}
				} else if res.committed == 0 {
					t.Fatal("write deck committed nothing")
				}
				if err := oracle(cl.Schema, cl.nodes()); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestClusterOLTPReplicaReads drives the churn deck against a
// 1-primary/2-replica semi-sync cluster: writes to the primary, reads
// and queries to the replicas (which must answer some), then
// convergence and the byte-identity oracle across all three nodes.
func TestClusterOLTPReplicaReads(t *testing.T) {
	sc, _ := ScenarioByName("whitepages")
	cl, err := StartCluster(sc, corpusSize(), 2, 7, repl.SemiSync)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res := load{sc: sc, pools: cl.Pools, workers: 4, deck: churn, write: at(cl.Primary.Addr),
		reads: []string{cl.Replicas[0].Addr, cl.Replicas[1].Addr}}.run(steady())
	// Reads go to replicas, writes to the primary: a healthy cluster
	// never redirects.
	if res.errs[errRedirect] > 0 {
		t.Errorf("%d redirects in a stable cluster", res.errs[errRedirect])
	}
	if res.errs[errIllegal] > 0 {
		t.Errorf("%d illegal batches", res.errs[errIllegal])
	}
	if res.committed == 0 {
		t.Fatal("nothing committed")
	}
	if res.reads == 0 {
		t.Fatal("no read answered by a replica")
	}
	if err := converge(cl.nodes(), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := oracle(cl.Schema, cl.nodes()); err != nil {
		t.Fatal(err)
	}
}

// redirectAddr extracts the primary address a replica's write-redirect
// ERR advertises ("" if the message is not a redirect).
func redirectAddr(errMsg string) string {
	_, after, ok := strings.Cut(errMsg, "redirect primary=")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(after, ')'); i >= 0 {
		after = after[:i]
	}
	return after
}

// TestRedirectAdvertisesClientAddr pins the bug the harness found: a
// replica's write redirect must advertise the primary's CLIENT address
// (dialable, speaks the protocol), not its replication listener.
func TestRedirectAdvertisesClientAddr(t *testing.T) {
	sc, _ := ScenarioByName("whitepages")
	cl, err := StartCluster(sc, 100, 1, 3, asyncRepl)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := Dial(cl.Replicas[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do("BEGIN")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Term != "ERR" {
		t.Fatalf("BEGIN on a replica: %q, want ERR", resp.Term)
	}
	addr := redirectAddr(resp.Err)
	if addr != cl.Primary.Addr {
		t.Fatalf("redirect advertises %q, want the primary client addr %q (repl addr is %q)",
			addr, cl.Primary.Addr, cl.Primary.ReplAddr)
	}
	// Following the redirect must land on a server that accepts the write.
	p, err := Dial(addr)
	if err != nil {
		t.Fatalf("advertised primary not dialable: %v", err)
	}
	defer p.Close()
	if resp, err := p.Do("BEGIN"); err != nil || !resp.OK() {
		t.Fatalf("BEGIN on advertised primary: %v %v", resp, err)
	}
	if resp, err := p.Do("ABORT"); err != nil || !resp.OK() {
		t.Fatalf("ABORT on advertised primary: %v %v", resp, err)
	}
}
