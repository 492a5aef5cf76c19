package server

import (
	"net"
	"testing"
	"time"

	"boundschema/internal/repl"
	"boundschema/internal/vfs"
	"boundschema/internal/workload"
)

// TestJitterBackoff pins the reconnect jitter contract: equal-jitter
// keeps every delay inside [d/2, d] (so backoff still bounds retry
// rate) while spreading replicas across the window (so a fleet that
// lost the same primary at the same instant does not reconnect in
// lockstep).
func TestJitterBackoff(t *testing.T) {
	const d = 400 * time.Millisecond
	seen := make(map[time.Duration]bool)
	for i := 0; i < 200; i++ {
		j := repl.JitterBackoff(d)
		if j < d/2 || j > d {
			t.Fatalf("JitterBackoff(%v) = %v, outside [%v, %v]", d, j, d/2, d)
		}
		seen[j] = true
	}
	if len(seen) < 10 {
		t.Errorf("200 samples landed on only %d distinct delays; no spread", len(seen))
	}
	if j := repl.JitterBackoff(0); j != 0 {
		t.Errorf("jitterBackoff(0) = %v, want 0", j)
	}
	if j := repl.JitterBackoff(1); j != 1 {
		t.Errorf("jitterBackoff(1) = %v, want the degenerate input back", j)
	}
}

// TestReconnectStorm: several replicas all start dialing an address
// nobody listens on yet — the synchronized-loss shape jitter exists
// for — and every one of them must find the primary once it appears,
// settle into streaming, and converge.
func TestReconnectStorm(t *testing.T) {
	const nReplicas = 4
	// Reserve an address so the replicas can dial before the primary
	// listens. Re-binding a just-released port can race another process;
	// skip rather than flake if the window is lost.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	replicas := make([]*Server, nReplicas)
	for i := range replicas {
		replicas[i] = startReplica(t, vfs.NewFault(), addr)
	}
	// Let every replica fail at least one dial and enter jittered
	// backoff before the primary exists.
	time.Sleep(250 * time.Millisecond)

	sch := workload.WhitePagesSchema()
	p, err := Open(Options{Schema: sch, Name: "whitepages", Instance: workload.WhitePagesInstance(sch),
		Addr: "127.0.0.1:0", Journal: crashJournalPath, FS: vfs.NewFault(), ReplAddr: addr, ReplMode: repl.Async})
	if err != nil {
		t.Skipf("reserved address %s re-bind lost: %v", addr, err)
	}
	t.Cleanup(func() { p.Close() })
	waitReplicas(t, p, nReplicas)

	txns := crashWorkload(5)
	for _, ct := range txns {
		if _, err := p.CommitTx(ct.build()); err != nil {
			t.Fatal(err)
		}
	}
	want := commitSeqOf(p)
	pb := serverLDIF(t, p)
	for i, r := range replicas {
		waitSeq(t, r, want)
		if got := serverLDIF(t, r); got != pb {
			t.Errorf("replica %d diverged after the reconnect storm", i)
		}
	}
}
