package loadgen

import (
	"bufio"
	"fmt"
	"strings"
	"time"

	"boundschema/internal/core"
	"boundschema/internal/ldif"
	"boundschema/internal/server"
	"boundschema/internal/vfs"
)

// The chaos and load tests' helpers: restarting a node over its
// surviving FS, waiting for replicas to converge, and the end-of-scenario
// convergence oracle.

// restartNode builds a fresh server over a node's surviving FS: the
// caller pulled the plug (fs.Recover() drops volatile state), and this
// re-runs the recovery pipeline over the durable journal on top of the
// deterministic seed corpus, exactly as a restarted bsd would.
func (c *Cluster) restartNode(name string, fs *vfs.Fault) (*Node, *core.Schema, error) {
	n, schema, _, err := c.boot(name, fs, server.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("recovery: %v", err)
	}
	return n, schema, nil
}

// seqOf is a node's highest locally committed sequence.
func seqOf(n *Node) uint64 {
	local, _ := n.Srv.ReplicaSeqs()
	return local
}

// awaitSeq polls until the node holds sequence want (replicas converge
// asynchronously even after semi-sync OKs — the ACK is durability, the
// apply is what the reads see).
func awaitSeq(n *Node, want uint64, timeout time.Duration) error {
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

// converge waits until every listed node reaches the first node's
// sequence. Call it only after write traffic has stopped.
func converge(nodes []*Node, timeout time.Duration) error {
	want := seqOf(nodes[0])
	for _, n := range nodes[1:] {
		if err := awaitSeq(n, want, timeout); err != nil {
			return err
		}
	}
	return nil
}

// oracle is the end-of-scenario convergence check over the surviving
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
func oracle(schema *core.Schema, nodes []*Node) error {
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
