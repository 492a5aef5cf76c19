package server

import (
	"bufio"
	"fmt"
	"strings"
	"testing"
	"time"

	"boundschema/internal/repl"
	"boundschema/internal/vfs"
	"boundschema/internal/workload"
)

// End-to-end replication tests: a real primary with a replication
// listener, real replicas dialing it over TCP, and byte-identity of the
// served instances as the convergence criterion. Every server runs on
// its own in-memory vfs.Fault (with no script it is just a fast FS), so
// a test can also pull the power on a replica's disk mid-catch-up.

// newReplServer recovers a journaled whitepages server from its own FS
// without serving it, so a test can inspect the recovered state. With
// replicaOf set it is a replica of that address: it takes the role
// before its journal opens, as Open does, and streams once the test
// calls startReplica. The caller owns Close.
func newReplServer(t *testing.T, fs vfs.FS, replicaOf string) *Server {
	t.Helper()
	sch := workload.WhitePagesSchema()
	srv, err := New(sch, "whitepages", workload.WhitePagesInstance(sch))
	if err != nil {
		t.Fatal(err)
	}
	srv.opts.FS, srv.opts.ReplicaOf = fs, replicaOf
	if replicaOf != "" {
		srv.role.Store(int32(RoleReplica))
	}
	if err := srv.OpenJournal(crashJournalPath); err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return srv
}

// startPrimary opens a journaled primary with o and a replication
// listener, and returns the listener's address.
func startPrimary(t *testing.T, o Options) (*Server, string) {
	t.Helper()
	if o.FS == nil {
		o.FS = vfs.NewFault()
	}
	o.Journal, o.ReplAddr = crashJournalPath, "127.0.0.1:0"
	srv := openServer(t, o)
	return srv, srv.ReplAddr()
}

// startReplica opens a replica on fs streaming from primaryAddr.
func startReplica(t *testing.T, fs vfs.FS, primaryAddr string) *Server {
	t.Helper()
	return openServer(t, Options{Journal: crashJournalPath, FS: fs, ReplicaOf: primaryAddr})
}

func commitSeqOf(srv *Server) uint64 {
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	return srv.commitSeq
}

// waitSeq blocks until the replica has applied through want.
func waitSeq(t *testing.T, r *Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		local, _ := r.ReplicaSeqs()
		if local >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at seq %d, want %d", local, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitReplicas blocks until the primary's hub has n live subscribers.
// Semi-sync tests need this: committing before the replica's handshake
// reaches the hub legitimately degrades the gate to async.
func waitReplicas(t *testing.T, primary *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for primary.ReplStatus().Replicas < n {
		if time.Now().After(deadline) {
			t.Fatalf("primary never saw %d replicas: %+v", n, primary.ReplStatus())
		}
		time.Sleep(time.Millisecond)
	}
}

// serverLDIF renders the served instance — the byte-identity oracle.
func serverLDIF(t *testing.T, srv *Server) string {
	t.Helper()
	var sb strings.Builder
	w := bufio.NewWriter(&sb)
	if err := srv.Snapshot(w); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	w.Flush()
	return sb.String()
}

// TestReplicationCluster is the tentpole acceptance scenario: one
// primary, two replicas, over a thousand commits. The first replica
// subscribes from sequence zero; the second joins mid-stream and
// catches up from the journal tail. Both must end byte-identical to
// the primary's encoded directory.
func TestReplicationCluster(t *testing.T) {
	const nCommits = 1020
	primary, addr := startPrimary(t, Options{ReplMode: repl.Async})
	r1 := startReplica(t, vfs.NewFault(), addr)

	txns := crashWorkload(nCommits)
	for i, ct := range txns[:nCommits/2] {
		if rep, err := primary.CommitTx(ct.build()); err != nil || !rep.Legal() {
			t.Fatalf("commit %d: err=%v report=%v", i, err, rep)
		}
	}
	// Late joiner: the journal (rotation off) covers every sequence, so
	// this replica catches up from the verbatim tail, not a snapshot.
	r2 := startReplica(t, vfs.NewFault(), addr)
	for i, ct := range txns[nCommits/2:] {
		if rep, err := primary.CommitTx(ct.build()); err != nil || !rep.Legal() {
			t.Fatalf("commit %d: err=%v report=%v", nCommits/2+i, err, rep)
		}
	}
	want := commitSeqOf(primary)
	if want < nCommits {
		t.Fatalf("primary commitSeq = %d, want >= %d", want, nCommits)
	}
	waitSeq(t, r1, want)
	waitSeq(t, r2, want)

	pb := serverLDIF(t, primary)
	for i, r := range []*Server{r1, r2} {
		if got := serverLDIF(t, r); got != pb {
			t.Errorf("replica %d diverged: %d bytes vs primary's %d", i+1, len(got), len(pb))
		}
		if r.Role() != RoleReplica {
			t.Errorf("replica %d role = %v", i+1, r.Role())
		}
		local, pseq := r.ReplicaSeqs()
		if local != want || pseq < want {
			t.Errorf("replica %d seqs: local=%d primary_seen=%d, want %d", i+1, local, pseq, want)
		}
	}
	st := primary.ReplStatus()
	if st.Replicas != 2 || st.LastShipped != want {
		t.Errorf("hub status = %+v, want 2 replicas shipped through %d", st, want)
	}
}

// TestReplicaSnapshotBootstrap: when the primary has rotated its journal
// past the replica's position, catch-up must fall back to a full
// snapshot — and streaming continues seamlessly after the bootstrap.
func TestReplicaSnapshotBootstrap(t *testing.T) {
	primary, addr := startPrimary(t, Options{JournalRotate: 1500}) // aggressive rotation
	txns := crashWorkload(80)
	for _, ct := range txns[:60] {
		if _, err := primary.CommitTx(ct.build()); err != nil {
			t.Fatal(err)
		}
	}
	if n := primary.metrics.JournalRotations.Load(); n == 0 {
		t.Fatalf("no rotation after 60 commits at a 1500-byte threshold")
	}

	rf := vfs.NewFault()
	r := startReplica(t, rf, addr)
	waitSeq(t, r, commitSeqOf(primary))

	// The replica must have bootstrapped via snapshot: its own snapshot
	// sidecar now records the primary's sequence.
	snap, err := rf.ReadFile(crashJournalPath + ".snapshot")
	if err != nil {
		t.Fatalf("replica has no snapshot sidecar after bootstrap: %v", err)
	}
	if !strings.HasPrefix(string(snap), snapshotSeqPrefix) {
		t.Errorf("replica snapshot lacks the %q header", snapshotSeqPrefix)
	}

	// Streaming continues after the bootstrap.
	for _, ct := range txns[60:] {
		if _, err := primary.CommitTx(ct.build()); err != nil {
			t.Fatal(err)
		}
	}
	waitSeq(t, r, commitSeqOf(primary))
	if got, want := serverLDIF(t, r), serverLDIF(t, primary); got != want {
		t.Errorf("replica diverged after snapshot bootstrap + streaming")
	}
}

// TestSemiSyncDurability: with semi-sync on, COMMIT's OK must mean the
// record survives the replica losing power — pull the plug on the
// replica's FS after the workload and recover a fresh server from it.
func TestSemiSyncDurability(t *testing.T) {
	primary, addr := startPrimary(t, Options{ReplMode: repl.SemiSync})
	rf := vfs.NewFault()
	r := startReplica(t, rf, addr)
	waitReplicas(t, primary, 1)

	txns := crashWorkload(50)
	for i, ct := range txns {
		if _, err := primary.CommitTx(ct.build()); err != nil {
			t.Fatalf("semi-sync commit %d: %v", i, err)
		}
	}
	want := commitSeqOf(primary)
	st := primary.ReplStatus()
	if st.Degraded {
		t.Fatalf("semi-sync degraded with a live replica: %+v", st)
	}
	if st.AckedSeq < want {
		t.Fatalf("acked_seq=%d below the last OK'd commit %d", st.AckedSeq, want)
	}

	// Power loss on the replica, then recovery through the ordinary
	// journal pipeline: every OK'd commit must be there.
	r.Close()
	rf.Recover()
	r2 := newReplServer(t, rf, "")
	defer r2.Close()
	if got := commitSeqOf(r2); got != want {
		t.Errorf("recovered replica at seq %d, want %d", got, want)
	}
	r2.mu.RLock()
	for _, ct := range txns {
		for _, dn := range ct.dns {
			if r2.dir.ByDN(dn) == nil {
				t.Errorf("semi-sync durability: %s OK'd on the primary but lost by the replica crash", dn)
			}
		}
	}
	r2.mu.RUnlock()
}

// TestSemiSyncDegradeAndReenable: with no replica the hub degrades to
// async (commits still succeed), and re-arms once a replica catches up.
func TestSemiSyncDegradeAndReenable(t *testing.T) {
	primary, addr := startPrimary(t, Options{ReplMode: repl.SemiSync})
	txns := crashWorkload(20)
	if _, err := primary.CommitTx(txns[0].build()); err != nil {
		t.Fatalf("commit with no replica must degrade, not fail: %v", err)
	}
	if st := primary.ReplStatus(); !st.Degraded {
		t.Fatalf("hub not degraded after a replica-less semi-sync commit: %+v", st)
	}

	r := startReplica(t, vfs.NewFault(), addr)
	waitSeq(t, r, commitSeqOf(primary))
	for _, ct := range txns[1:] {
		if _, err := primary.CommitTx(ct.build()); err != nil {
			t.Fatal(err)
		}
	}
	waitSeq(t, r, commitSeqOf(primary))
	deadline := time.Now().Add(5 * time.Second)
	for primary.ReplStatus().Degraded {
		if time.Now().After(deadline) {
			t.Fatalf("semi-sync never re-armed after the replica caught up: %+v", primary.ReplStatus())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicaReadsAndWriteRedirect: a replica serves read traffic and
// reports its role, but BEGIN is refused with a redirect to the primary.
func TestReplicaReadsAndWriteRedirect(t *testing.T) {
	primary, addr := startPrimary(t, Options{ReplMode: repl.Async})
	txns := crashWorkload(10)
	for _, ct := range txns {
		if _, err := primary.CommitTx(ct.build()); err != nil {
			t.Fatal(err)
		}
	}
	r := startReplica(t, vfs.NewFault(), addr)
	waitSeq(t, r, commitSeqOf(primary))

	c := dialClient(t, r.Addr())

	body := c.expectOK("SEARCH (objectClass=person)")
	if len(body) == 0 {
		t.Errorf("replica SEARCH returned nothing")
	}
	body = c.expectOK("STAT")
	if len(body) == 0 || body[0] != "role: replica" {
		t.Errorf("replica STAT body = %v, want role: replica first", body)
	}
	body = c.expectOK("METRICS")
	if got := metricLine(t, body, "role:"); got != "role: replica" {
		t.Errorf("replica METRICS role = %q", got)
	}
	rep := metricLine(t, body, "replica:")
	if !strings.Contains(rep, "lag=0") {
		t.Errorf("caught-up replica reports %q, want lag=0", rep)
	}

	c.send("BEGIN")
	if _, term := c.until(); !strings.Contains(term, "redirect primary="+addr) {
		t.Errorf("BEGIN on replica = %q, want a redirect to %s", term, addr)
	}
	if _, err := r.CommitTx(txns[0].build()); err == nil ||
		!strings.Contains(err.Error(), "redirect primary=") {
		t.Errorf("CommitTx on replica = %v, want redirect error", err)
	}

	// The primary's surfaces report the other side of the relationship.
	pc := dialClient(t, primary.Addr())
	body = pc.expectOK("STAT")
	if len(body) == 0 || body[0] != "role: primary" {
		t.Errorf("primary STAT body = %v, want role: primary first", body)
	}
	body = pc.expectOK("METRICS")
	if got := metricLine(t, body, "replication:"); !strings.Contains(got, "replicas=1") {
		t.Errorf("primary METRICS replication = %q, want replicas=1", got)
	}
}

// TestPromote: a caught-up replica is promoted over the protocol — the
// reply carries the final journal verify — and then accepts writes.
func TestPromote(t *testing.T) {
	primary, addr := startPrimary(t, Options{ReplMode: repl.Async})
	txns := crashWorkload(30)
	for _, ct := range txns[:20] {
		if _, err := primary.CommitTx(ct.build()); err != nil {
			t.Fatal(err)
		}
	}
	r := startReplica(t, vfs.NewFault(), addr)
	waitSeq(t, r, commitSeqOf(primary))

	c := dialClient(t, r.Addr())
	body := c.expectOK("PROMOTE")
	joined := strings.Join(body, "\n")
	if !strings.Contains(joined, "verify: clean") || !strings.Contains(joined, "promoted: now primary") {
		t.Errorf("PROMOTE body missing verify/promotion lines:\n%s", joined)
	}
	if r.Role() != RolePrimary {
		t.Errorf("role after PROMOTE = %v", r.Role())
	}

	// Writes flow on the promoted node, through the protocol and on.
	c.expectOK("BEGIN")
	c.expectOK(
		"ADD uid=failover,ou=attLabs,o=att",
		"objectClass: person",
		"objectClass: top",
		"name: failover",
		"COMMIT",
	)
	if got := commitSeqOf(r); got != 21 {
		t.Errorf("promoted node commitSeq = %d, want 21", got)
	}

	// A second PROMOTE (now a primary) is refused.
	c.send("PROMOTE")
	if _, term := c.until(); !strings.HasPrefix(term, "ERR ") {
		t.Errorf("PROMOTE on a primary = %q, want ERR", term)
	}
}

// TestPromoteRefusedWhileDegraded: promotion must never hand writes to
// a replica that already knows it cannot trust its state.
func TestPromoteRefusedWhileDegraded(t *testing.T) {
	primary, addr := startPrimary(t, Options{ReplMode: repl.Async})
	if _, err := primary.CommitTx(crashWorkload(1)[0].build()); err != nil {
		t.Fatal(err)
	}
	r := startReplica(t, vfs.NewFault(), addr)
	waitSeq(t, r, commitSeqOf(primary))
	r.mu.Lock()
	r.degradeReplica("test: simulated divergence")
	r.mu.Unlock()
	if _, err := r.Promote(); err == nil || !strings.Contains(err.Error(), "degraded") {
		t.Errorf("Promote on a degraded replica = %v, want refusal", err)
	}
}

// TestReplicaCrashDuringCatchup is satellite 3: pull the power on the
// replica's file system at every mutating FS operation during catch-up
// — both the journal-tail and the snapshot-bootstrap path — then
// recover through the ordinary journal pipeline and assert the state is
// legal, transaction-atomic, and gap-free; finally resume streaming and
// require byte-identical convergence with the still-running primary.
func TestReplicaCrashDuringCatchup(t *testing.T) {
	const nCommits = 30
	scenarios := []struct {
		name        string
		rotateBytes int64 // primary rotation; >0 forces the snapshot path
	}{
		// Rotation off: the primary's journal covers seq 1.., so a fresh
		// replica catches up from the verbatim tail (one append+fsync per
		// segment — the widest sweep).
		{"journal-tail", 0},
		// Aggressive rotation: the journal no longer reaches back to the
		// replica's HELLO, so catch-up is a snapshot bootstrap (tmp write,
		// sync, rename, dir sync, journal truncate).
		{"snapshot-bootstrap", 1500},
	}
	txns := crashWorkload(nCommits)
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			primary, addr := startPrimary(t, Options{JournalRotate: sc.rotateBytes})
			for _, ct := range txns {
				if _, err := primary.CommitTx(ct.build()); err != nil {
					t.Fatal(err)
				}
			}
			pseq := commitSeqOf(primary)
			pbytes := serverLDIF(t, primary)

			// Fault-free counting pass: the replica's FS op stream is
			// deterministic (one streaming loop, a static primary), so its
			// op count bounds the crash sweep.
			probe := vfs.NewFault()
			r := startReplica(t, probe, addr)
			waitSeq(t, r, pseq)
			r.Close()
			total := probe.OpCount()
			if got := serverLDIF(t, r); got != pbytes {
				t.Fatalf("fault-free replica not byte-identical to primary")
			}

			step := 1
			if cap := crashMatrixCap(); cap > 0 && total > cap {
				step = (total + cap - 1) / cap
			}
			t.Logf("%s: %d mutating replica FS ops, crashing at every %d", sc.name, total, step)
			for op := 1; op <= total; op += step {
				op := op
				t.Run(fmt.Sprintf("op%03d", op), func(t *testing.T) {
					fault := vfs.NewFault()
					fault.SetScript(vfs.FaultPoint{Op: op, Kind: vfs.FaultCrash})
					r := startReplica(t, fault, addr)
					deadline := time.Now().Add(15 * time.Second)
					for {
						local, _ := r.ReplicaSeqs()
						if local >= pseq || fault.Crashed() {
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("replica neither caught up nor crashed at op %d", op)
						}
						time.Sleep(time.Millisecond)
					}
					r.Close()
					fault.Recover()

					// Restart through the recovery pipeline: a pure crash
					// must never be refused, and the recovered state must be
					// legal, atomic, and not ahead of the primary.
					r2 := newReplServer(t, fault, addr)
					t.Cleanup(func() { r2.Close() })
					r2.mu.RLock()
					for _, ct := range txns {
						present := 0
						for _, dn := range ct.dns {
							if r2.dir.ByDN(dn) != nil {
								present++
							}
						}
						if present != 0 && present != len(ct.dns) {
							t.Errorf("atomicity: %d of %d entries of a replicated transaction present: %v",
								present, len(ct.dns), ct.dns)
						}
					}
					if rep := r2.checker.Check(r2.dir); !rep.Legal() {
						t.Errorf("legality: recovered replica illegal:\n%s", rep)
					}
					local := r2.commitSeq
					r2.mu.RUnlock()
					if local > pseq {
						t.Errorf("recovered replica at seq %d, ahead of primary %d", local, pseq)
					}

					// Resume streaming: the crash must heal completely.
					r2.startReplica()
					waitSeq(t, r2, pseq)
					if got := serverLDIF(t, r2); got != pbytes {
						t.Errorf("replica not byte-identical after crash at op %d + recovery + resume", op)
					}
					r2.Close()
				})
			}
		})
	}
}
