package loadgen

import (
	"cmp"
	"fmt"
	"math/rand"
	"time"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
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
	c.Schema, c.Pools, c.Primary = schema, sc.extractPools(dir), p
	for i := 0; i < nReplicas; i++ {
		if _, err := c.addReplica(fmt.Sprintf("replica%d", i), p.ReplAddr, p.Addr); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// addReplica boots a fresh replica streaming from replAddr and
// advertising primaryClientAddr in its write redirects. Chaos scenarios
// use it post-failover to hang a new replica off the promoted primary.
func (c *Cluster) addReplica(name, replAddr, primaryClientAddr string) (*Node, error) {
	n, _, _, err := c.boot(name, vfs.NewFault(), server.Options{ReplicaOf: replAddr, PrimaryClientAddr: primaryClientAddr})
	if err != nil {
		return nil, err
	}
	c.Replicas = append(c.Replicas, n)
	return n, nil
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

// nodes returns every node, primary first.
func (c *Cluster) nodes() []*Node {
	return append([]*Node{c.Primary}, c.Replicas...)
}

// Close shuts every node down.
func (c *Cluster) Close() {
	for _, n := range c.nodes() {
		if n != nil {
			n.Srv.Close()
		}
	}
}
