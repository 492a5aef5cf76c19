package loadgen

import (
	"bufio"
	"cmp"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/ldif"
	"boundschema/internal/repl"
	"boundschema/internal/server"
	"boundschema/internal/vfs"
)

// journalPath is each node's journal file on its own in-memory FS.
const journalPath = "journal.ldif"

// Node is one in-process server: its own schema and corpus copy, its
// own fault-injectable FS, real TCP listeners. Chaos scenarios reach
// into FS to script faults and into Srv to kill or promote.
type Node struct {
	Name     string
	Srv      *server.Server
	FS       *vfs.Fault
	Addr     string // client protocol address
	ReplAddr string // replication listener (primary only)
}

// Cluster is a single node or a primary with N streaming replicas, all
// in-process, seeded with byte-identical corpora (same generator, same
// seed). It exists so load tests and chaos scenarios can pull the plug
// on real servers without leaving the test process.
type Cluster struct {
	Scenario *Scenario
	Schema   *core.Schema // the primary's schema, for oracle-side checking
	Pools    *Pools
	Primary  *Node
	Replicas []*Node

	corpusN int
	seed    int64
}

// StartCluster boots a primary and nReplicas streaming replicas.
func StartCluster(sc *Scenario, corpusN, nReplicas int, seed int64, mode repl.Mode) (*Cluster, error) {
	c := &Cluster{Scenario: sc, corpusN: corpusN, seed: seed}
	o := server.Options{ReplMode: mode, SemiSyncTimeout: 2 * time.Second}
	if nReplicas > 0 {
		o.ReplAddr = "127.0.0.1:0"
	}
	p, schema, dir, err := c.boot("primary", vfs.NewFault(), o)
	if err != nil {
		return nil, err
	}
	c.Schema, c.Pools, c.Primary = schema, sc.ExtractPools(dir), p
	for i := 0; i < nReplicas; i++ {
		if _, err := c.AddReplica(fmt.Sprintf("replica%d", i), p.ReplAddr, p.Addr); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// AddReplica boots a fresh replica streaming from replAddr and
// advertising primaryClientAddr in its write redirects. Chaos scenarios
// use it post-failover to hang a new replica off the promoted primary.
func (c *Cluster) AddReplica(name, replAddr, primaryClientAddr string) (*Node, error) {
	n, _, _, err := c.boot(name, vfs.NewFault(), server.Options{ReplicaOf: replAddr, PrimaryClientAddr: primaryClientAddr})
	if err != nil {
		return nil, err
	}
	c.Replicas = append(c.Replicas, n)
	return n, nil
}

// RestartNode builds a fresh server over a node's surviving FS: the
// caller pulled the plug (fs.Recover() drops volatile state), and this
// re-runs the recovery pipeline over the durable journal on top of the
// deterministic seed corpus, exactly as a restarted bsd would.
func (c *Cluster) RestartNode(name string, fs *vfs.Fault) (*Node, *core.Schema, error) {
	n, schema, _, err := c.boot(name, fs, server.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("recovery: %v", err)
	}
	return n, schema, nil
}

// boot opens a node over this cluster's deterministic corpus. Every node
// re-generates the corpus from the same seed, so all nodes start
// byte-identical — the premise of the convergence oracle.
func (c *Cluster) boot(name string, fs *vfs.Fault, o server.Options) (*Node, *core.Schema, *dirtree.Directory, error) {
	schema := c.Scenario.NewSchema()
	dir := c.Scenario.NewCorpus(schema, rand.New(rand.NewSource(c.seed)), c.corpusN)
	srv, err := open(c.Scenario, schema, dir, fs, o)
	if err != nil {
		return nil, nil, nil, err
	}
	return &Node{Name: name, Srv: srv, FS: fs, Addr: srv.Addr(), ReplAddr: srv.ReplAddr()}, schema, dir, nil
}

// open is the one boot path of every in-process node and shard: a
// journaled server over dir on fs, on o.Addr or a free port, in o's role.
func open(sc *Scenario, schema *core.Schema, dir *dirtree.Directory, fs *vfs.Fault, o server.Options) (*server.Server, error) {
	o.Schema, o.Name, o.Instance, o.FS, o.Journal = schema, sc.Name, dir, fs, journalPath
	o.Addr = cmp.Or(o.Addr, "127.0.0.1:0")
	return server.Open(o)
}

// Nodes returns every node, primary first.
func (c *Cluster) Nodes() []*Node {
	return append([]*Node{c.Primary}, c.Replicas...)
}

// Close shuts every node down.
func (c *Cluster) Close() {
	for _, n := range c.Nodes() {
		if n != nil {
			n.Srv.Close()
		}
	}
}

// seqOf is a node's highest locally committed sequence.
func seqOf(n *Node) uint64 {
	local, _ := n.Srv.ReplicaSeqs()
	return local
}

// AwaitSeq polls until the node holds sequence want (replicas converge
// asynchronously even after semi-sync OKs — the ACK is durability, the
// apply is what the reads see).
func AwaitSeq(n *Node, want uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if seqOf(n) >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %s stuck at seq %d, want %d", n.Name, seqOf(n), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// Converge waits until every listed node reaches the first node's
// sequence. Call it only after write traffic has stopped.
func Converge(nodes []*Node, timeout time.Duration) error {
	want := seqOf(nodes[0])
	for _, n := range nodes[1:] {
		if err := AwaitSeq(n, want, timeout); err != nil {
			return err
		}
	}
	return nil
}

// Oracle is the end-of-scenario convergence check over the surviving
// nodes:
//
//  1. every node's served instance is byte-identical LDIF to the
//     first's (replication converged to the same state, not just the
//     same sequence number);
//  2. every node passes VERIFY over the wire (on-disk journal checksums
//     and sequence continuity, plus the incremental engine's view of
//     legality);
//  3. the instance re-parsed from LDIF is legal under the full
//     non-incremental engines, which must also agree among themselves
//     (core.DiffEngines: one worker vs several, naive keys and
//     structure) — so a bug in the incremental Fig 5 path cannot vouch
//     for itself.
func Oracle(schema *core.Schema, nodes []*Node) error {
	if len(nodes) == 0 {
		return fmt.Errorf("oracle: no surviving nodes")
	}
	var ref string
	for i, n := range nodes {
		ld, err := nodeLDIF(n)
		if err != nil {
			return fmt.Errorf("oracle: snapshot %s: %v", n.Name, err)
		}
		if i == 0 {
			ref = ld
		} else if ld != ref {
			return fmt.Errorf("oracle: %s and %s serve different instances (%d vs %d bytes)",
				nodes[0].Name, n.Name, len(ref), len(ld))
		}
	}
	for _, n := range nodes {
		c, err := Dial(n.Addr)
		if err != nil {
			return fmt.Errorf("oracle: dial %s: %v", n.Name, err)
		}
		resp, err := c.Do("VERIFY")
		c.Close()
		if err != nil {
			return fmt.Errorf("oracle: VERIFY %s: %v", n.Name, err)
		}
		if !resp.OK() {
			return fmt.Errorf("oracle: VERIFY %s failed: %s %s\n%s", n.Name, resp.Term, resp.Err, strings.Join(resp.Lines, "\n"))
		}
	}
	d, err := ldif.ReadDirectory(strings.NewReader(ref), schema.Registry)
	if err != nil {
		return fmt.Errorf("oracle: re-parse snapshot: %v", err)
	}
	if r := core.NewChecker(schema).Check(d); !r.Legal() {
		return fmt.Errorf("oracle: converged instance illegal under the full engine:\n%s", r)
	}
	if err := core.DiffEngines(schema, d, 2, 4); err != nil {
		return fmt.Errorf("oracle: %v", err)
	}
	return nil
}

// nodeLDIF renders a node's served instance.
func nodeLDIF(n *Node) (string, error) {
	var sb strings.Builder
	w := bufio.NewWriter(&sb)
	if err := n.Srv.Snapshot(w); err != nil {
		return "", err
	}
	w.Flush()
	return sb.String(), nil
}
