package server

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"boundschema/internal/dirtree"
	"boundschema/internal/txn"
	"boundschema/internal/vfs"
	"boundschema/internal/workload"
)

// The crash matrix: run a scripted ≥50-commit workload against a
// fault-injecting file system, crash at every mutating FS operation N,
// restart through the recovery pipeline, and assert the three
// crash-consistency properties at every point:
//
//   - durability: every transaction acknowledged before the crash is
//     present after recovery;
//   - atomicity: every transaction — acknowledged or not — is all-or-
//     nothing, never partially applied;
//   - legality: the recovered instance passes the full bounding-schema
//     check (recovery itself refuses to serve otherwise).
//
// Two matrices sweep the one durability pipeline: rotation off (every
// op is a journal append), and a small rotation threshold, so the sweep
// also crashes inside snapshot rotation — including between the rename
// and the journal truncate, the window the snapshot-seq header closes.
// The committer rotates from its own goroutine, so the sequential
// driver waits at a quiescent-point barrier after every commit: the
// committer serves the barrier only after any rotation that commit
// triggered, which keeps the op stream — and so the sweep — deterministic.

const crashJournalPath = "journal.ldif"

// crashTxn is one scripted workload transaction: a builder (fresh
// Transaction per run) and the DNs it adds atomically.
type crashTxn struct {
	build func() *txn.Transaction
	dns   []string
}

// crashWorkload scripts n commits: mostly single-person adds, with
// every tenth transaction a multi-entry atomic pair — an orgUnit plus
// its first person, each illegal without the other — so partial
// application is detectable structurally, not just by legality.
func crashWorkload(n int) []crashTxn {
	name := func(s string) map[string][]dirtree.Value {
		return map[string][]dirtree.Value{"name": {dirtree.String(s)}}
	}
	out := make([]crashTxn, 0, n)
	for i := 0; i < n; i++ {
		if i%10 == 5 {
			ou := fmt.Sprintf("ou=grp%d,ou=attLabs,o=att", i)
			uid := fmt.Sprintf("uid=member%d,%s", i, ou)
			i := i
			out = append(out, crashTxn{
				build: func() *txn.Transaction {
					tx := &txn.Transaction{}
					tx.Add(ou, []string{"orgUnit", "orgGroup", "top"}, nil)
					tx.Add(uid, []string{"person", "top"}, name(fmt.Sprintf("member %d", i)))
					return tx
				},
				dns: []string{ou, uid},
			})
			continue
		}
		dn := fmt.Sprintf("uid=w%03d,ou=attLabs,o=att", i)
		i := i
		out = append(out, crashTxn{
			build: func() *txn.Transaction {
				tx := &txn.Transaction{}
				tx.Add(dn, []string{"person", "top"}, name(fmt.Sprintf("worker %d", i)))
				return tx
			},
			dns: []string{dn},
		})
	}
	return out
}

// runCrashWorkload drives the scripted workload through CommitTx on a
// server journaling to the fault FS, sequentially (the determinism the
// op-counting sweep depends on). It returns the DNs of every
// acknowledged transaction; the run stops at the first commit error
// (the scripted crash, or the read-only degradation that follows it).
func runCrashWorkload(t *testing.T, fault *vfs.Fault, rotateBytes int64, txns []crashTxn) map[string]bool {
	t.Helper()
	s := workload.WhitePagesSchema()
	srv, err := New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	srv.opts.FS = fault
	srv.opts.JournalRotate = rotateBytes
	acked := make(map[string]bool)
	if err := srv.OpenJournal(crashJournalPath); err != nil {
		return acked // the crash point landed inside startup
	}
	defer srv.Close()
	for _, ct := range txns {
		rep, err := srv.CommitTx(ct.build())
		if err != nil {
			break
		}
		if !rep.Legal() {
			t.Fatalf("scripted workload transaction rejected:\n%s", rep)
		}
		for _, dn := range ct.dns {
			acked[dn] = true
		}
		srv.atQuiescent(func() error { return nil }) // rotation barrier
	}
	return acked
}

// assertRecovery restarts from the crashed file system and checks
// durability, atomicity and legality.
func assertRecovery(t *testing.T, fault *vfs.Fault, txns []crashTxn, acked map[string]bool) {
	t.Helper()
	s := workload.WhitePagesSchema()
	srv, err := New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	srv.opts.FS = fault
	if err := srv.OpenJournal(crashJournalPath); err != nil {
		t.Fatalf("recovery refused after a pure crash: %v", err)
	}
	defer srv.Close()
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	for dn := range acked {
		if srv.dir.ByDN(dn) == nil {
			t.Errorf("durability: acknowledged entry %s lost by the crash", dn)
		}
	}
	for _, ct := range txns {
		present := 0
		for _, dn := range ct.dns {
			if srv.dir.ByDN(dn) != nil {
				present++
			}
		}
		if present != 0 && present != len(ct.dns) {
			t.Errorf("atomicity: %d of %d entries of a transaction present after recovery: %v", present, len(ct.dns), ct.dns)
		}
	}
	if r := srv.checker.Check(srv.dir); !r.Legal() {
		t.Errorf("legality: recovered instance illegal:\n%s", r)
	}
}

// crashMatrixCap bounds how many crash points each matrix sweeps:
// CRASH_MATRIX_MAX overrides (CI's race job sets it), -short trims, and
// the default sweeps every operation.
func crashMatrixCap() int {
	if v := os.Getenv("CRASH_MATRIX_MAX"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	if testing.Short() {
		return 24
	}
	return 0
}

func TestCrashMatrix(t *testing.T) {
	const nCommits = 60
	txns := crashWorkload(nCommits)
	matrices := []struct {
		name        string
		rotateBytes int64
	}{
		{"append-only", 0},
		// A small threshold: the sweep crashes inside the snapshot write,
		// the rename, the SyncDir and the truncate.
		{"rotating", 2048},
	}
	for _, m := range matrices {
		m := m
		t.Run(m.name, func(t *testing.T) {
			// Fault-free counting pass: the same workload under a script
			// that injects nothing yields the sweep bound.
			probe := vfs.NewFault()
			acked := runCrashWorkload(t, probe, m.rotateBytes, txns)
			total := probe.OpCount()
			if len(acked) < nCommits {
				t.Fatalf("fault-free run acknowledged %d entries, want at least %d commits' worth", len(acked), nCommits)
			}
			assertRecovery(t, probe, txns, acked)
			if m.rotateBytes > 0 {
				if _, err := probe.ReadFile(crashJournalPath + ".snapshot"); err != nil {
					t.Fatalf("rotating matrix never rotated: %v", err)
				}
			}
			// The sweep addresses crash points by op number, so the op
			// stream must not depend on goroutine scheduling.
			again := vfs.NewFault()
			runCrashWorkload(t, again, m.rotateBytes, txns)
			if again.OpCount() != total {
				t.Fatalf("op stream not deterministic: %d ops, then %d", total, again.OpCount())
			}

			step := 1
			if cap := crashMatrixCap(); cap > 0 && total > cap {
				step = (total + cap - 1) / cap
			}
			t.Logf("matrix %s: %d mutating ops, crashing at every %d", m.name, total, step)
			for op := 1; op <= total; op += step {
				op := op
				t.Run(fmt.Sprintf("op%03d", op), func(t *testing.T) {
					fault := vfs.NewFault()
					fault.SetScript(vfs.FaultPoint{Op: op, Kind: vfs.FaultCrash})
					acked := runCrashWorkload(t, fault, m.rotateBytes, txns)
					fault.Recover()
					assertRecovery(t, fault, txns, acked)
				})
			}
		})
	}
}
