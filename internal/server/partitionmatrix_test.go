package server

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"boundschema/internal/dirtree"
	"boundschema/internal/netfault"
	"boundschema/internal/repl"
	"boundschema/internal/txn"
	"boundschema/internal/vfs"
)

// The partition matrix is the network twin of the crash matrix: a
// semi-sync cluster (one primary, two replicas) runs a scripted
// workload with every replication byte flowing through a
// netfault.Fault, and the sweep injects each fault kind at every Nth
// network operation — mid-HELLO, mid-segment, mid-ACK, mid-catch-up.
// After the workload the most-advanced replica is promoted WHILE the
// fault may still be active (a failover decided during the partition,
// the realistic worst case), the network heals, and three invariants
// are asserted at every point:
//
//   - fencing: once the deposed primary observes any higher-epoch
//     artifact, it is read-only — at most one writable node survives
//     contact, and it is the one with the highest epoch;
//   - durability: no semi-sync-acknowledged write is lost by the
//     failover (the promote-the-most-advanced-replica rule makes the
//     ACK a real guarantee);
//   - convergence: after every node rejoins the new primary, all three
//     serve byte-identical instances at the new epoch.
//
// During a full partition both sides may transiently accept writes —
// fencing is reactive, not a lease — so the matrix asserts the
// post-contact state, and the unacknowledged writes the deposed
// primary took during the partition are discarded by its snapshot
// bootstrap when it rejoins. TestSplitBrainFencingRegression pins that
// window explicitly.

// partitionMatrixCap bounds how many injection points each fault kind
// sweeps: PARTITION_MATRIX_MAX overrides (0 means the full sweep — the
// workflow_dispatch CI job), -short trims further, and the default
// keeps plain `go test` wall-clock sane.
func partitionMatrixCap() int {
	if v := os.Getenv("PARTITION_MATRIX_MAX"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			return n
		}
	}
	if testing.Short() {
		return 2
	}
	return 4
}

// postFailoverTxns scripts commits that only the NEW primary issues, on
// DNs disjoint from crashWorkload's so they cannot collide with
// whatever prefix of the original workload the promoted replica holds.
func postFailoverTxns(n int) []crashTxn {
	out := make([]crashTxn, 0, n)
	for i := 0; i < n; i++ {
		dn := fmt.Sprintf("uid=post%02d,ou=attLabs,o=att", i)
		i := i
		out = append(out, crashTxn{
			build: func() *txn.Transaction {
				tx := &txn.Transaction{}
				tx.Add(dn, []string{"person", "top"}, map[string][]dirtree.Value{
					"name": {dirtree.String(fmt.Sprintf("post failover %d", i))}})
				return tx
			},
			dns: []string{dn},
		})
	}
	return out
}

// probeEpoch delivers a fencing contact to a replication listener: a
// raw HELLO announcing epoch — exactly what a re-pointed replica's
// handshake looks like to a deposed primary after the network heals —
// and returns the first response line.
func probeEpoch(t *testing.T, addr string, lastSeq, epoch uint64) string {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("probe dial %s: %v", addr, err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintf(c, "REPL HELLO last_seq=%d epoch=%d\n", lastSeq, epoch); err != nil {
		t.Fatalf("probe write: %v", err)
	}
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		t.Fatalf("probe read: %v", err)
	}
	return strings.TrimRight(line, "\r\n")
}

// runPartitionScenario runs one full failover story under a single
// scripted fault (op == 0 runs fault-free — the counting pass) and
// returns the network op count at the end of the faultable window.
func runPartitionScenario(t *testing.T, kind netfault.Kind, op int) int {
	t.Helper()
	const nCommits = 24
	txns := crashWorkload(nCommits)

	f := netfault.New()
	if op > 0 {
		f.SetScript(netfault.Point{Op: op, Kind: kind, Dur: 30 * time.Millisecond})
	}

	pfs, f1, f2 := vfs.NewFault(), vfs.NewFault(), vfs.NewFault()
	p, addr := startPrimary(t, Options{FS: pfs, ReplMode: repl.SemiSync, SemiSyncTimeout: 50 * time.Millisecond,
		ReplListenerWrap: f.Listener})
	mkReplica := func(fs vfs.FS) *Server {
		return openServer(t, Options{Journal: crashJournalPath, FS: fs, ReplicaOf: addr, Dialer: f.Dialer()})
	}
	r1, r2 := mkReplica(f1), mkReplica(f2)

	// Best-effort wait for both subscriptions so the counting pass (and
	// every late-op scenario) covers steady-state streaming; an early
	// fault may legitimately keep a replica out, so no Fatal here.
	subDeadline := time.Now().Add(2 * time.Second)
	for p.ReplStatus().Replicas < 2 && time.Now().Before(subDeadline) {
		time.Sleep(time.Millisecond)
	}

	// The workload. A network fault must never fail a primary commit:
	// semi-sync degrades to async on ACK timeout, it does not refuse
	// writes. semiAcked records the sound per-commit witness — sampled
	// immediately after the OK, AckedSeq >= seq proves some replica
	// held the record durably at that moment.
	semiAcked := make(map[string]bool)
	for i, ct := range txns {
		if _, cerr := p.CommitTx(ct.build()); cerr != nil {
			t.Fatalf("commit %d failed under %v at op %d: %v", i, kind, op, cerr)
		}
		if p.ReplStatus().AckedSeq >= commitSeqOf(p) {
			for _, dn := range ct.dns {
				semiAcked[dn] = true
			}
		}
	}
	opCount := f.OpCount()

	// Failover, decided while the fault may still be live: promote the
	// most-advanced replica — the rule that turns semi-sync ACKs into a
	// no-loss guarantee.
	l1, _ := r1.ReplicaSeqs()
	l2, _ := r2.ReplicaSeqs()
	promoted, other, otherFS := r1, r2, f2
	if l2 > l1 {
		promoted, other, otherFS = r2, r1, f1
	}
	if _, perr := promoted.promote(); perr != nil {
		t.Fatalf("promote during %v at op %d: %v", kind, op, perr)
	}
	newEpoch := promoted.Epoch()
	if newEpoch != 2 {
		t.Errorf("promoted epoch = %d, want 2 (seed epoch 1 bumped once)", newEpoch)
	}

	// Durability: every semi-sync-acknowledged write survived the
	// failover onto the promoted node.
	promoted.mu.RLock()
	for dn := range semiAcked {
		if promoted.dir.ByDN(dn) == nil {
			t.Errorf("acked write %s lost by failover under %v at op %d", dn, kind, op)
		}
	}
	promoted.mu.RUnlock()

	// Heal, and disarm any scripted point that has not fired yet so the
	// recovery phase below runs on a clean network.
	f.SetScript()
	f.Heal()

	// Fencing contact: the deposed primary observes the new epoch and
	// must fence itself — after this, at most one node is writable, and
	// it is the highest-epoch one.
	if resp := probeEpoch(t, addr, commitSeqOf(promoted), newEpoch); !strings.Contains(resp, "stale epoch") {
		t.Errorf("probe response = %q, want a stale-epoch refusal", resp)
	}
	extra := postFailoverTxns(4)
	if _, cerr := p.CommitTx(extra[3].build()); cerr == nil {
		t.Errorf("deposed primary still writable after fencing contact under %v at op %d", kind, op)
	} else if !strings.Contains(cerr.Error(), "fenced") {
		t.Errorf("deposed primary refused with %q, want a fenced: reason", cerr)
	}
	if got := p.roleString(); got != "fenced" {
		t.Errorf("deposed primary role = %q, want fenced", got)
	}

	// The new primary serves writes and ships at the new epoch.
	newAddr, err := promoted.ListenRepl("127.0.0.1:0")
	if err != nil {
		t.Fatalf("promoted ListenRepl: %v", err)
	}
	for i, ct := range extra[:3] {
		if _, cerr := promoted.CommitTx(ct.build()); cerr != nil {
			t.Fatalf("post-failover commit %d: %v", i, cerr)
		}
	}

	// Rejoin: the surviving replica and the deposed primary both
	// restart against the new primary. Both announce epoch 1 < 2, so
	// both bootstrap from a snapshot — the deposed primary's partition-
	// era unacked writes are discarded, not merged.
	other.Close()
	r3 := startReplica(t, otherFS, newAddr)
	p.Close()
	p2 := startReplica(t, pfs, newAddr)
	// waitSeq is not enough for the deposed primary: its local seq may
	// START above the new primary's (partition-era unacked writes), so
	// convergence is epoch adoption plus exact sequence agreement.
	want := commitSeqOf(promoted)
	waitConverged := func(s *Server, who string) {
		deadline := time.Now().Add(15 * time.Second)
		for {
			local, _ := s.ReplicaSeqs()
			if s.Epoch() == newEpoch && local == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s stuck at seq %d epoch %d, want seq %d epoch %d",
					who, local, s.Epoch(), want, newEpoch)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitConverged(r3, "rejoined replica")
	waitConverged(p2, "rejoined deposed primary")
	pb := serverLDIF(t, promoted)
	if got := serverLDIF(t, r3); got != pb {
		t.Errorf("rejoined replica not byte-identical under %v at op %d", kind, op)
	}
	if got := serverLDIF(t, p2); got != pb {
		t.Errorf("rejoined deposed primary not byte-identical under %v at op %d", kind, op)
	}
	if r3.Epoch() != newEpoch || p2.Epoch() != newEpoch {
		t.Errorf("rejoined epochs = %d/%d, want %d", r3.Epoch(), p2.Epoch(), newEpoch)
	}
	r3.Close()
	p2.Close()
	promoted.Close()
	return opCount
}

func TestPartitionMatrix(t *testing.T) {
	// Fault-free counting pass: validates the whole story with no fault
	// and bounds the sweep by the observed network op count.
	total := runPartitionScenario(t, netfault.Drop, 0)
	if total < 10 {
		t.Fatalf("counting pass saw only %d network ops", total)
	}
	step := 1
	if cap := partitionMatrixCap(); cap > 0 && total > cap {
		step = (total + cap - 1) / cap
	}
	kinds := []netfault.Kind{
		netfault.Drop, netfault.Delay, netfault.Dup,
		netfault.CutInbound, netfault.CutOutbound,
		netfault.Partition, netfault.SlowReader,
	}
	t.Logf("partition matrix: %d network ops, injecting every %d, %d fault kinds", total, step, len(kinds))
	for _, k := range kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			for op := 1; op <= total; op += step {
				op := op
				t.Run(fmt.Sprintf("op%03d", op), func(t *testing.T) {
					runPartitionScenario(t, k, op)
				})
			}
		})
	}
}

// TestSplitBrainFencingRegression pins the exact hazard epochs close.
// Before fencing contact, a promoted replica and its deposed primary
// BOTH accept writes — the split-brain window this PR is about. The
// test demonstrates the window is real (both commits succeed), then
// delivers one higher-epoch artifact to the old primary and asserts it
// fences permanently; and separately that a replica which adopted the
// new epoch refuses to follow the stale primary (poison ACK path)
// without degrading itself.
func TestSplitBrainFencingRegression(t *testing.T) {
	p, addr := startPrimary(t, Options{ReplMode: repl.SemiSync, SemiSyncTimeout: 50 * time.Millisecond})
	rfs := vfs.NewFault()
	r := startReplica(t, rfs, addr)
	waitReplicas(t, p, 1)
	txns := crashWorkload(6)
	for _, ct := range txns[:4] {
		if _, err := p.CommitTx(ct.build()); err != nil {
			t.Fatal(err)
		}
	}
	waitSeq(t, r, commitSeqOf(p))

	if _, err := r.promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if got := r.Epoch(); got != 2 {
		t.Fatalf("promoted epoch = %d, want 2", got)
	}

	// The split-brain window: no contact has happened, so BOTH nodes
	// accept writes. This is the pre-fencing behavior the rest of the
	// test proves is now bounded by first contact.
	if _, err := p.CommitTx(txns[4].build()); err != nil {
		t.Fatalf("old primary refused a write before any fencing contact: %v", err)
	}
	if _, err := r.CommitTx(txns[5].build()); err != nil {
		t.Fatalf("new primary refused a write: %v", err)
	}

	// One higher-epoch artifact fences the old primary for good.
	if resp := probeEpoch(t, addr, commitSeqOf(r), r.Epoch()); !strings.Contains(resp, "stale epoch") {
		t.Fatalf("probe response = %q, want stale-epoch refusal", resp)
	}
	if _, err := p.CommitTx(postFailoverTxns(1)[0].build()); err == nil ||
		!strings.Contains(err.Error(), "fenced") {
		t.Fatalf("old primary write after fencing contact = %v, want fenced refusal", err)
	}
	if got := p.roleString(); got != "fenced" {
		t.Errorf("fenced primary role = %q", got)
	}
	if n := p.metrics.FencingEvents.Load(); n != 1 {
		t.Errorf("fencing_events = %d, want 1", n)
	}

	// Replica-side rejection: a node that adopted epoch 2 (bootstrapped
	// from the new primary, epoch persisted in its snapshot header and
	// recovered across a restart) refuses to follow the epoch-1 primary
	// — it counts epoch_rejects and keeps retrying, it does NOT degrade.
	newAddr, err := r.ListenRepl("127.0.0.1:0")
	if err != nil {
		t.Fatalf("promoted ListenRepl: %v", err)
	}
	wfs := vfs.NewFault()
	w := startReplica(t, wfs, newAddr)
	waitSeq(t, w, commitSeqOf(r))
	w.Close()
	w2 := newReplServer(t, wfs, addr) // the STALE primary
	t.Cleanup(func() { w2.Close() })
	if got := w2.Epoch(); got != 2 {
		t.Fatalf("restarted replica recovered epoch %d, want 2 from its snapshot header", got)
	}
	seqBefore := commitSeqOf(w2)
	w2.startReplica()
	deadline := time.Now().Add(5 * time.Second)
	for w2.metrics.EpochRejects.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replica never rejected the stale primary's stream")
		}
		time.Sleep(time.Millisecond)
	}
	w2.mu.RLock()
	ro := w2.readOnly
	w2.mu.RUnlock()
	if ro != "" {
		t.Errorf("replica degraded on a stale primary (%q); it should only refuse and retry", ro)
	}
	if got := commitSeqOf(w2); got != seqBefore {
		t.Errorf("replica applied %d→%d from a stale primary", seqBefore, got)
	}
}
