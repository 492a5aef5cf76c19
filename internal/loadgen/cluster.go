package loadgen

import (
	"bufio"
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
	mode    repl.Mode
}

// StartSingle boots a journaled single node.
func StartSingle(sc *Scenario, corpusN int, seed int64) (*Cluster, error) {
	return StartCluster(sc, corpusN, 0, seed, repl.Async)
}

// StartCluster boots a primary and nReplicas streaming replicas.
func StartCluster(sc *Scenario, corpusN, nReplicas int, seed int64, mode repl.Mode) (*Cluster, error) {
	c := &Cluster{Scenario: sc, corpusN: corpusN, seed: seed, mode: mode}
	p, schema, dir, err := c.newNode("primary")
	if err != nil {
		return nil, err
	}
	c.Schema = schema
	c.Pools = sc.ExtractPools(dir)
	c.Primary = p
	p.Srv.SetReplicationMode(mode)
	p.Srv.SetSemiSyncTimeout(2 * time.Second)
	if nReplicas > 0 {
		if p.ReplAddr, err = p.Srv.ListenRepl("127.0.0.1:0"); err != nil {
			c.Close()
			return nil, err
		}
	}
	if p.Addr, err = p.Srv.Listen("127.0.0.1:0"); err != nil {
		c.Close()
		return nil, err
	}
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
	n, _, _, err := c.newNode(name)
	if err != nil {
		return nil, err
	}
	if err := n.Srv.StartReplica(replAddr); err != nil {
		n.Srv.Close()
		return nil, err
	}
	n.Srv.SetPrimaryClientAddr(primaryClientAddr)
	if n.Addr, err = n.Srv.Listen("127.0.0.1:0"); err != nil {
		n.Srv.Close()
		return nil, err
	}
	c.Replicas = append(c.Replicas, n)
	return n, nil
}

// newNode builds a journaled, not-yet-listening server with this
// cluster's deterministic corpus. Every node re-generates the corpus
// from the same seed, so all nodes start byte-identical — the premise
// of the convergence oracle.
func (c *Cluster) newNode(name string) (*Node, *core.Schema, *dirtree.Directory, error) {
	schema := c.Scenario.NewSchema()
	dir := c.Scenario.NewCorpus(schema, rand.New(rand.NewSource(c.seed)), c.corpusN)
	srv, err := server.New(schema, c.Scenario.Name, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	fs := vfs.NewFault()
	srv.SetFS(fs)
	if err := srv.OpenJournal(journalPath); err != nil {
		srv.Close()
		return nil, nil, nil, err
	}
	return &Node{Name: name, Srv: srv, FS: fs}, schema, dir, nil
}

// RestartNode builds a fresh server over a node's surviving FS — the
// crash-recovery path: the caller pulls the plug (fs.Recover() drops
// volatile state), and this re-runs the full recovery pipeline
// (OpenJournal) over the durable journal on top of the deterministic
// seed corpus, exactly as a restarted bsd would.
func (c *Cluster) RestartNode(name string, fs *vfs.Fault) (*Node, *core.Schema, error) {
	schema := c.Scenario.NewSchema()
	dir := c.Scenario.NewCorpus(schema, rand.New(rand.NewSource(c.seed)), c.corpusN)
	srv, err := server.New(schema, c.Scenario.Name, dir)
	if err != nil {
		return nil, nil, err
	}
	srv.SetFS(fs)
	if err := srv.OpenJournal(journalPath); err != nil {
		srv.Close()
		return nil, nil, fmt.Errorf("recovery: %v", err)
	}
	n := &Node{Name: name, Srv: srv, FS: fs}
	if n.Addr, err = srv.Listen("127.0.0.1:0"); err != nil {
		srv.Close()
		return nil, nil, err
	}
	return n, schema, nil
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
