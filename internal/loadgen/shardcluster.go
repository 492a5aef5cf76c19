package loadgen

import (
	"bufio"
	"fmt"
	"math/rand"
	"strings"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/ldif"
	"boundschema/internal/server"
	"boundschema/internal/shard"
	"boundschema/internal/vfs"
)

// ShardNode is one in-process shard server. pristine keeps the carved
// boot instance aside so a crash scenario can rebuild it and let
// journal replay bring the shard forward — the same recovery pipeline a
// restarted bsd runs.
type ShardNode struct {
	Name  string
	Srv   *server.Server
	FS    *vfs.Fault
	Addr  string
	Roots []string

	pristine *dirtree.Directory
}

// ShardCluster is a sharded deployment in one process: the corpus
// carved over N shard servers plus a default shard, fronted by a
// router speaking the client protocol. Load runs target Addr exactly
// as they would a single node.
type ShardCluster struct {
	Scenario *Scenario
	Schema   *core.Schema
	Pools    *Pools
	Map      *shard.Map
	Router   *shard.Router
	Addr     string // the router's client-protocol address

	Shards []*ShardNode // map order: carved shards first, default last
}

// StartShardCluster carves the scenario corpus with shard.AutoCut into
// nShards subtree shards plus the default remainder, boots a journaled
// server per shard, and a router over the lot.
func StartShardCluster(sc *Scenario, corpusN, nShards int, seed int64) (*ShardCluster, error) {
	schema := sc.NewSchema()
	src := sc.NewCorpus(schema, rand.New(rand.NewSource(seed)), corpusN)
	c := &ShardCluster{Scenario: sc, Schema: schema, Pools: sc.ExtractPools(src)}
	roots, err := shard.AutoCut(schema, src, nShards)
	if err != nil {
		return nil, err
	}
	var carved []*shard.Shard
	for i, rs := range roots {
		if len(rs) > 0 {
			carved = append(carved, &shard.Shard{Name: fmt.Sprintf("s%d", i), Addr: "pending", Roots: rs})
		}
	}
	if len(carved) == 0 {
		return nil, fmt.Errorf("shardcluster: corpus has no cuttable depth-1 subtree (corpusN=%d too small?)", corpusN)
	}
	cutMap, err := shard.NewMap(carved, &shard.Shard{Name: "rest", Addr: "pending"})
	if err != nil {
		return nil, err
	}
	dirs, err := shard.Carve(src, cutMap)
	if err != nil {
		return nil, err
	}
	var withAddrs []*shard.Shard
	var def *shard.Shard
	for _, sh := range cutMap.All() {
		n := &ShardNode{Name: sh.Name, FS: vfs.NewFault(), Roots: sh.Roots, pristine: dirs[sh.Name].Clone()}
		if err := c.bootShard(n, dirs[sh.Name]); err != nil {
			c.Close()
			return nil, err
		}
		c.Shards = append(c.Shards, n)
		bound := &shard.Shard{Name: sh.Name, Addr: n.Addr, Roots: sh.Roots}
		if len(sh.Roots) == 0 {
			def = bound
		} else {
			withAddrs = append(withAddrs, bound)
		}
	}
	if c.Map, err = shard.NewMap(withAddrs, def); err != nil {
		c.Close()
		return nil, err
	}
	c.Router = shard.NewRouter(c.Map)
	if c.Addr, err = c.Router.Listen("127.0.0.1:0"); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// bootShard starts one shard server over dir, on a free port the first
// time and on n.Addr on a restart (the shard map is static). The fault
// FS survives restarts and carries the journal.
func (c *ShardCluster) bootShard(n *ShardNode, dir *dirtree.Directory) error {
	srv, err := open(c.Scenario, c.Scenario.NewSchema(), dir, n.FS, server.Options{Addr: n.Addr, ShardName: n.Name, ShardRoots: n.Roots})
	if err != nil {
		return fmt.Errorf("shard %s: %v", n.Name, err)
	}
	n.Srv, n.Addr = srv, srv.Addr()
	return nil
}

// ShardByName returns the named shard node, or nil.
func (c *ShardCluster) ShardByName(name string) *ShardNode {
	for _, n := range c.Shards {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// CrashShard kills one shard server. The router keeps serving; traffic
// owned by the dead shard comes back as shard_down errors.
func (c *ShardCluster) CrashShard(name string) {
	if n := c.ShardByName(name); n != nil && n.Srv != nil {
		n.Srv.Close()
	}
}

// RestartShard reboots a crashed shard from its pristine carved
// instance plus journal replay, on its original address (the shard map
// is static).
func (c *ShardCluster) RestartShard(name string) error {
	n := c.ShardByName(name)
	if n == nil {
		return fmt.Errorf("shardcluster: no shard %q", name)
	}
	n.FS.Recover()
	return c.bootShard(n, n.pristine.Clone())
}

// Close shuts the router and every shard down.
func (c *ShardCluster) Close() {
	if c.Router != nil {
		c.Router.Close()
	}
	for _, n := range c.Shards {
		if n.Srv != nil {
			n.Srv.Close()
		}
	}
}

// Oracle is the sharded deployment's end-of-run check:
//
//  1. every shard passes VERIFY over the wire (journal checksums,
//     sequence continuity, incremental-engine legality) and serves a
//     per-shard legal instance under the full engine;
//  2. the router's CHECK — per-shard checks plus the coordinator's
//     cross-shard boundary audit over the spine — returns OK;
//  3. the global instance reconstructed from the shard snapshots
//     (default shard plus every carved subtree grafted back under its
//     spine parent) is legal under the full engine, so the shard-local
//     arguments cannot vouch for themselves.
func (c *ShardCluster) Oracle() error {
	merged, expected, err := c.mergedInstance()
	if err != nil {
		return err
	}
	for _, n := range c.Shards {
		cl, err := Dial(n.Addr)
		if err != nil {
			return fmt.Errorf("shard oracle: dial %s: %v", n.Name, err)
		}
		resp, err := cl.Do("VERIFY")
		cl.Close()
		if err != nil {
			return fmt.Errorf("shard oracle: VERIFY %s: %v", n.Name, err)
		}
		if !resp.OK() {
			return fmt.Errorf("shard oracle: VERIFY %s failed: %s %s", n.Name, resp.Term, resp.Err)
		}
	}
	cl, err := Dial(c.Addr)
	if err != nil {
		return fmt.Errorf("shard oracle: dial router: %v", err)
	}
	resp, err := cl.Do("CHECK")
	cl.Close()
	if err != nil {
		return fmt.Errorf("shard oracle: router CHECK: %v", err)
	}
	if !resp.OK() {
		return fmt.Errorf("shard oracle: router CHECK failed: %s %s\n%s",
			resp.Term, resp.Err, strings.Join(resp.Lines, "\n"))
	}
	if r := core.NewChecker(c.Schema).Check(merged); !r.Legal() {
		return fmt.Errorf("shard oracle: reconstructed global instance illegal:\n%s", r)
	}
	if merged.Len() != expected {
		return fmt.Errorf("shard oracle: reconstructed instance has %d entries, shard totals minus ghosts say %d",
			merged.Len(), expected)
	}
	return nil
}

// mergedInstance reconstructs the global directory — the default
// shard's snapshot with every carved subtree grafted back under its
// (spine) parent — and returns it along with the expected entry total:
// the per-shard snapshot sizes summed, minus the statically known ghost
// multiplicity. The two counts agreeing is an accounting check
// independent of the router's own STAT arithmetic.
func (c *ShardCluster) mergedInstance() (*dirtree.Directory, int, error) {
	snap := func(n *ShardNode) (*dirtree.Directory, error) {
		var sb strings.Builder
		w := bufio.NewWriter(&sb)
		if err := n.Srv.Snapshot(w); err != nil {
			return nil, fmt.Errorf("shard oracle: snapshot %s: %v", n.Name, err)
		}
		w.Flush()
		d, err := ldif.ReadDirectory(strings.NewReader(sb.String()), c.Schema.Registry)
		if err != nil {
			return nil, fmt.Errorf("shard oracle: re-parse %s: %v", n.Name, err)
		}
		return d, nil
	}
	var merged *dirtree.Directory
	expected := 0
	for _, n := range c.Shards {
		if len(n.Roots) == 0 {
			var err error
			if merged, err = snap(n); err != nil {
				return nil, 0, err
			}
			expected += merged.Len()
		}
	}
	if merged == nil {
		return nil, 0, fmt.Errorf("shard oracle: no default shard to merge into")
	}
	for _, n := range c.Shards {
		if len(n.Roots) == 0 {
			continue
		}
		d, err := snap(n)
		if err != nil {
			return nil, 0, err
		}
		expected += d.Len()
		for _, root := range n.Roots {
			e := d.ByDN(root)
			if e == nil {
				return nil, 0, fmt.Errorf("shard oracle: shard %s lost its root %q", n.Name, root)
			}
			var parent *dirtree.Entry
			if p := e.Parent(); p != nil {
				if parent = merged.ByDN(p.DN()); parent == nil {
					return nil, 0, fmt.Errorf("shard oracle: spine parent %q missing from the default shard", p.DN())
				}
			}
			if _, err := merged.GraftSubtree(parent, e); err != nil {
				return nil, 0, fmt.Errorf("shard oracle: graft %q: %v", root, err)
			}
		}
	}
	for _, s := range c.Map.Spine() {
		expected -= len(c.Map.Holders(s)) - 1
	}
	return merged, expected, nil
}
