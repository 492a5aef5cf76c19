package server

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"boundschema/internal/core"
	"boundschema/internal/vfs"
)

// countProofs wraps srv's checker hook so the returned counter sees every
// full legality proof (top-level Check) srv runs from now on.
func countProofs(srv *Server) *atomic.Int64 {
	var n atomic.Int64
	hook := srv.checker.OnTiming
	srv.checker.OnTiming = func(tm core.CheckTiming) {
		n.Add(1)
		hook(tm)
	}
	return &n
}

// TestBootProvesOnce counts full legality proofs on the recovery paths.
// The base a journal replays onto is proven once — by New, or by
// loading the snapshot — and every replayed record passes the Figure 5
// Δ-checks, which Theorem 4.2 makes exact; so OpenJournal adds no proof
// beyond the snapshot's, and fsck and VERIFY prove the recovered
// instance once each.
func TestBootProvesOnce(t *testing.T) {
	const records = 4
	fault := vfs.NewFault()
	srv := newFaultServer(t, fault)
	if err := srv.OpenJournal(crashJournalPath); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if err := commitPerson(t, srv, fmt.Sprintf("b%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()

	t.Run("journal", func(t *testing.T) {
		srv := newFaultServer(t, fault)
		t.Cleanup(func() { srv.Close() })
		proofs := countProofs(srv)
		if err := srv.OpenJournal(crashJournalPath); err != nil {
			t.Fatal(err)
		}
		if got := srv.metrics.recReplayed.Load(); got != records {
			t.Fatalf("replayed %d records, want %d", got, records)
		}
		if got := proofs.Load(); got != 0 {
			t.Errorf("OpenJournal over %d records ran %d full proofs, want 0", records, got)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dialClient(t, addr).expectOK("VERIFY")
		if got := proofs.Load(); got != 1 {
			t.Errorf("VERIFY ran %d full proofs, want 1", got)
		}
	})

	t.Run("fsck", func(t *testing.T) {
		srv := newFaultServer(t, fault)
		proofs := countProofs(srv)
		rep, err := srv.Fsck(crashJournalPath)
		if err != nil {
			t.Fatal(err)
		}
		if got := proofs.Load(); got != 1 {
			t.Errorf("fsck ran %d full proofs, want 1", got)
		}
		proven := slices.ContainsFunc(rep.Lines(), func(l string) bool { return strings.HasPrefix(l, "legality: instance legal") })
		if !rep.Legal || rep.RecordsReplayed != records || !proven {
			t.Fatalf("fsck report = %+v, lines %v", rep, rep.Lines())
		}
	})

	t.Run("snapshot", func(t *testing.T) {
		srv := newFaultServer(t, fault)
		if err := srv.OpenJournal(crashJournalPath); err != nil {
			t.Fatal(err)
		}
		if err := srv.Rotate(); err != nil {
			t.Fatal(err)
		}
		if err := commitPerson(t, srv, "after"); err != nil {
			t.Fatal(err)
		}
		srv.Close()

		srv2 := newFaultServer(t, fault)
		defer srv2.Close()
		proofs := countProofs(srv2)
		if err := srv2.OpenJournal(crashJournalPath); err != nil {
			t.Fatal(err)
		}
		if srv2.dir.ByDN("uid=after,ou=attLabs,o=att") == nil || srv2.metrics.recReplayed.Load() != 1 {
			t.Fatal("recovery did not load the snapshot and replay the one record after it")
		}
		if got := proofs.Load(); got != 1 {
			t.Errorf("OpenJournal with a snapshot ran %d full proofs, want 1 (the snapshot's)", got)
		}
	})
}
