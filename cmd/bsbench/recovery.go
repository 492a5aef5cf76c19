package main

// E17 — crash-recovery cost (internal/server/recover.go): recovery
// replays the journal and then proves the whole recovered instance
// legal. Checksum-verified records replay trusted — no per-transaction
// Figure 5 re-checks, with the interval encoding patched in O(|Δ|)
// (internal/dirtree/patch.go) — so replay cost is linear in journal
// length; the terminal full proof is the safety net. The experiment
// builds journals of increasing length (plus one snapshot-compacted
// variant), times a cold OpenJournal over each, splits out the final
// legality proof (microseconds), and normalizes by the number of
// commits actually replayed — the snapshotted point replays zero, so
// its per-commit figure is omitted rather than understated. Optionally
// records the numbers as JSON (-json-e17 BENCH_recovery.json) and, with
// -check-recovery-scaling, fails unless ns/replayed-commit at the
// largest journal stays under 3x the smallest (the superlinear-replay
// regression gate run by CI).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"boundschema/internal/dirtree"
	"boundschema/internal/server"
	"boundschema/internal/txn"
	"boundschema/internal/workload"
)

type recoveryPoint struct {
	Commits      int   `json:"commits"`
	Snapshotted  bool  `json:"snapshotted"`
	JournalBytes int64 `json:"journal_bytes"`
	RecoveryNs   int64 `json:"recovery_ns"`
	Replayed     int64 `json:"replayed_commits"`
	LegalityUs   int64 `json:"legality_us"`
	// NsPerReplayed divides by the commits recovery actually replayed;
	// zero replays (the snapshotted point) omit it instead of
	// understating it.
	NsPerReplayed float64 `json:"ns_per_replayed_commit,omitempty"`
}

type recoveryResult struct {
	Experiment string `json:"experiment"`
	envInfo
	Points []recoveryPoint `json:"points"`
}

// e17Build drives n sequential commits into a fresh journal under dir
// and, when snapshot is set, compacts it so recovery starts from the
// snapshot instead of a full replay.
func e17Build(dir string, n int, snapshot bool) (string, error) {
	s := workload.WhitePagesSchema()
	srv, err := server.New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "journal.ldif")
	if err := srv.OpenJournal(path); err != nil {
		return "", err
	}
	defer srv.Close()
	for i := 0; i < n; i++ {
		tx := &txn.Transaction{}
		uid := fmt.Sprintf("e17u%06d", i)
		tx.Add("uid="+uid+",ou=attLabs,o=att", []string{"person", "top"},
			map[string][]dirtree.Value{"name": {dirtree.String(uid)}})
		rep, err := srv.CommitTx(tx)
		if err != nil {
			return "", err
		}
		if !rep.Legal() {
			return "", fmt.Errorf("e17 build commit %d rejected", i)
		}
	}
	if snapshot {
		if err := srv.Rotate(); err != nil {
			return "", err
		}
	}
	return path, nil
}

// e17Recover cold-starts a server over the journal and times the full
// recovery pipeline: scan + checksum verification + replay + the final
// legality proof. It returns the elapsed time plus the replayed-commit
// count and legality-proof microseconds from the recovery metrics.
func e17Recover(path string) (time.Duration, int64, int64, error) {
	s := workload.WhitePagesSchema()
	srv, err := server.New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		return 0, 0, 0, err
	}
	t0 := time.Now()
	if err := srv.OpenJournal(path); err != nil {
		return 0, 0, 0, err
	}
	elapsed := time.Since(t0)
	srv.Close()
	var replayed, legalityUs int64
	if snap, ok := srv.MetricsSnapshot().(map[string]any); ok {
		if rec, ok := snap["recovery"].(map[string]int64); ok {
			replayed = rec["journal_records_replayed"]
			legalityUs = rec["recovery_legality_us"]
		}
	}
	return elapsed, replayed, legalityUs, nil
}

func runE17() {
	sizes := []int{250, 1000, 4000}
	if *quick {
		sizes = []int{100, 400}
	}
	fmt.Println("cold-start recovery over journals of increasing length (per-commit checksummed records)")
	fmt.Println()

	res := recoveryResult{Experiment: "e17-crash-recovery", envInfo: env("whitepages")}
	run := func(n int, snapshot bool) error {
		dir, err := os.MkdirTemp("", "bsbench-e17-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		path, err := e17Build(dir, n, snapshot)
		if err != nil {
			return err
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		elapsed, replayed, legalityUs, err := e17Recover(path)
		if err != nil {
			return err
		}
		p := recoveryPoint{
			Commits:      n,
			Snapshotted:  snapshot,
			JournalBytes: st.Size(),
			RecoveryNs:   elapsed.Nanoseconds(),
			Replayed:     replayed,
			LegalityUs:   legalityUs,
		}
		if replayed > 0 {
			p.NsPerReplayed = float64(elapsed.Nanoseconds()) / float64(replayed)
		}
		res.Points = append(res.Points, p)
		kind := "journal-replay"
		if snapshot {
			kind = "snapshotted  "
		}
		per := "       (0 replayed)"
		if replayed > 0 {
			per = fmt.Sprintf("%.0f ns/replayed-commit", p.NsPerReplayed)
		}
		fmt.Printf("%7d commits  %s  journal=%-8d recovery=%-12v replayed=%-5d legality=%dµs  %s\n",
			n, kind, st.Size(), elapsed, replayed, legalityUs, per)
		return nil
	}
	for _, n := range sizes {
		if err := run(n, false); err != nil {
			fmt.Fprintf(os.Stderr, "bsbench: e17 n=%d: %v\n", n, err)
			return
		}
	}
	// The snapshot-compacted variant of the largest size: recovery loads
	// the snapshot and replays an empty journal, so its cost no longer
	// scales with history length.
	if err := run(sizes[len(sizes)-1], true); err != nil {
		fmt.Fprintf(os.Stderr, "bsbench: e17 snapshot: %v\n", err)
		return
	}
	fmt.Println("\nshape check: trusted replay keeps ns/replayed-commit near-flat as the journal grows; snapshot compaction removes replay entirely.")

	if *checkRecoveryScaling {
		first, last := res.Points[0], res.Points[len(res.Points)-2] // last non-snapshotted point
		if first.NsPerReplayed <= 0 || last.NsPerReplayed <= 0 {
			fmt.Fprintln(os.Stderr, "bsbench: e17 scaling check: missing per-commit data")
			os.Exit(1)
		}
		ratio := last.NsPerReplayed / first.NsPerReplayed
		fmt.Printf("scaling check: %d -> %d commits: %.0f -> %.0f ns/replayed-commit (%.2fx, limit 3x)\n",
			first.Commits, last.Commits, first.NsPerReplayed, last.NsPerReplayed, ratio)
		if ratio >= 3 {
			fmt.Fprintf(os.Stderr, "bsbench: e17 FAILED scaling check: replay is superlinear again (%.2fx >= 3x)\n", ratio)
			os.Exit(1)
		}
	}

	if *jsonE17 != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bsbench: %v\n", err)
			return
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonE17, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bsbench: %v\n", err)
			return
		}
		fmt.Printf("results written to %s\n", *jsonE17)
	}
}
