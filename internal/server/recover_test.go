package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"log"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"boundschema/internal/dirtree"
	"boundschema/internal/repl"
	"boundschema/internal/txn"
	"boundschema/internal/vfs"
	"boundschema/internal/workload"
)

// newFaultServer builds a whitepages server over the fault FS, without
// a listener — the recovery tests drive it through CommitTx.
func newFaultServer(t *testing.T, fault *vfs.Fault) *Server {
	t.Helper()
	s := workload.WhitePagesSchema()
	srv, err := New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetFS(fault)
	return srv
}

// commitPerson commits one person entry through CommitTx.
func commitPerson(t *testing.T, srv *Server, uid string) error {
	t.Helper()
	tx := &txn.Transaction{}
	tx.Add("uid="+uid+",ou=attLabs,o=att", []string{"person", "top"},
		map[string][]dirtree.Value{"name": {dirtree.String(uid)}})
	rep, err := srv.CommitTx(tx)
	if err != nil {
		return err
	}
	if !rep.Legal() {
		t.Fatalf("commit of %s rejected:\n%s", uid, rep)
	}
	return nil
}

// TestRecoveryBitFlipQuarantined is the acceptance case for mid-log
// corruption: a silently flipped bit in an acknowledged record must be
// caught by its checksum at the next startup, the journal quarantined,
// and the server must refuse to start — on every attempt, not just the
// first.
func TestRecoveryBitFlipQuarantined(t *testing.T) {
	fault := vfs.NewFault()
	srv := newFaultServer(t, fault)
	if err := srv.OpenJournal(crashJournalPath); err != nil {
		t.Fatal(err)
	}
	// Sequential commits are batches of one: OpenAppend=1, then commit i
	// is Write=2i, Sync=2i+1. Flip a bit inside commit 2's record —
	// mid-log once two more commits land after it.
	fault.SetScript(vfs.FaultPoint{Op: 4, Kind: vfs.FaultBitFlip})
	for _, uid := range []string{"p1", "p2", "p3", "p4"} {
		if err := commitPerson(t, srv, uid); err != nil {
			t.Fatalf("commit %s: %v (bit flips are silent)", uid, err)
		}
	}
	srv.Close()

	for attempt := 1; attempt <= 2; attempt++ {
		srv2 := newFaultServer(t, fault)
		err := srv2.OpenJournal(crashJournalPath)
		if err == nil {
			t.Fatalf("attempt %d: server started over a corrupt journal", attempt)
		}
		if !strings.Contains(err.Error(), "quarantined") || !strings.Contains(err.Error(), "refusing to serve") {
			t.Fatalf("attempt %d: refusal does not explain itself: %v", attempt, err)
		}
	}
	if _, err := fault.ReadFile(crashJournalPath + ".quarantine"); err != nil {
		t.Fatalf("quarantine copy missing: %v", err)
	}
	// The original journal is preserved too — quarantine copies, the
	// operator decides what to delete.
	if _, err := fault.ReadFile(crashJournalPath); err != nil {
		t.Fatalf("journal destroyed by quarantine: %v", err)
	}
}

// TestRecoveryTornWriteTruncated: a torn final append (prefix reached
// the platter, crash before the marker) is recognized as the
// unacknowledged tail, truncated, and counted — and the journal keeps
// accepting appends afterwards.
func TestRecoveryTornWriteTruncated(t *testing.T) {
	fault := vfs.NewFault()
	srv := newFaultServer(t, fault)
	if err := srv.OpenJournal(crashJournalPath); err != nil {
		t.Fatal(err)
	}
	fault.SetScript(vfs.FaultPoint{Op: 6, Kind: vfs.FaultTornWrite}) // commit 3's write
	var acked []string
	for _, uid := range []string{"p1", "p2", "p3"} {
		if err := commitPerson(t, srv, uid); err != nil {
			break
		}
		acked = append(acked, uid)
	}
	if len(acked) != 2 {
		t.Fatalf("acked %v, want exactly p1 p2 (p3's write tore)", acked)
	}
	fault.Recover()

	srv2 := newFaultServer(t, fault)
	if err := srv2.OpenJournal(crashJournalPath); err != nil {
		t.Fatalf("recovery from a torn tail: %v", err)
	}
	defer srv2.Close()
	for _, uid := range acked {
		if srv2.dir.ByDN("uid="+uid+",ou=attLabs,o=att") == nil {
			t.Errorf("acked entry %s lost", uid)
		}
	}
	if srv2.dir.ByDN("uid=p3,ou=attLabs,o=att") != nil {
		t.Errorf("torn, unacknowledged entry replayed")
	}
	if n := srv2.metrics.recTruncated.Load(); n != 1 {
		t.Errorf("journal_records_truncated = %d, want 1", n)
	}
	if srv2.metrics.recClean.Load() != 0 {
		t.Errorf("recovery_clean = 1 after a truncation")
	}
	// The log is clean again: append, restart, everything survives.
	if err := commitPerson(t, srv2, "p5"); err != nil {
		t.Fatalf("append after torn-tail recovery: %v", err)
	}
	srv2.Close()
	srv3 := newFaultServer(t, fault)
	if err := srv3.OpenJournal(crashJournalPath); err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer srv3.Close()
	if srv3.metrics.recClean.Load() != 1 {
		t.Errorf("recovery_clean = 0 after a clean restart")
	}
	for _, uid := range []string{"p1", "p2", "p5"} {
		if srv3.dir.ByDN("uid="+uid+",ou=attLabs,o=att") == nil {
			t.Errorf("entry %s lost across torn-tail recovery + append", uid)
		}
	}
}

// TestRecoveryTornFirstRecord: a crash during the first-ever append
// leaves a journal with no complete marker in it. Whatever shape the
// torn bytes take — a whole change record whose marker never landed,
// the same with half a marker, half a change record — they were never
// acknowledged: recovery truncates them all, replays nothing, and the
// node boots.
func TestRecoveryTornFirstRecord(t *testing.T) {
	ghost := fmt.Sprintf(journaledAdd, "ghost", "ghost")
	shapes := map[string]string{
		"payload-without-marker":  ghost,
		"payload-and-half-marker": ghost + "# com",
		"half-payload":            ghost[:len(ghost)/2],
	}
	for name, data := range shapes {
		t.Run(name, func(t *testing.T) {
			if sr := scanJournal([]byte(data)); sr.corrupt || len(sr.txns) != 0 || sr.tornBytes != int64(len(data)) {
				t.Fatalf("scan = %+v, want %d torn bytes and nothing else", sr, len(data))
			}
			fault := vfs.NewFault()
			fault.WriteFile(crashJournalPath, []byte(data))
			srv := newFaultServer(t, fault)
			if err := srv.OpenJournal(crashJournalPath); err != nil {
				t.Fatalf("a torn first append stopped the server from booting: %v", err)
			}
			if left, err := fault.ReadFile(crashJournalPath); err != nil || len(left) != 0 {
				t.Errorf("journal holds %d bytes after recovery (err=%v), want it truncated to 0", len(left), err)
			}
			if srv.dir.ByDN("uid=ghost,ou=attLabs,o=att") != nil {
				t.Errorf("unacknowledged first write was replayed")
			}
			if srv.metrics.recClean.Load() != 0 || srv.metrics.recTruncated.Load() != 1 || srv.metrics.recReplayed.Load() != 0 {
				t.Errorf("recovery metrics: clean=%d truncated=%d replayed=%d, want 0/1/0",
					srv.metrics.recClean.Load(), srv.metrics.recTruncated.Load(), srv.metrics.recReplayed.Load())
			}
			if err := commitPerson(t, srv, "first"); err != nil {
				t.Fatalf("commit after torn-first-record recovery: %v", err)
			}
			srv.Close()

			srv2 := newFaultServer(t, fault)
			if err := srv2.OpenJournal(crashJournalPath); err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer srv2.Close()
			if srv2.metrics.recClean.Load() != 1 {
				t.Errorf("recovery_clean = 0 on the restart after the repair")
			}
			if srv2.dir.ByDN("uid=first,ou=attLabs,o=att") == nil || srv2.dir.ByDN("uid=ghost,ou=attLabs,o=att") != nil {
				t.Errorf("restart did not reproduce exactly the acknowledged commit")
			}
		})
	}
}

// TestPreChecksumFormatsRefused: one journal format and one wire format.
// A bare or epoch-less marker on disk is a damaged marker — quarantine,
// refuse, replay nothing, every time — and an epoch-less REPL control
// line ends its session; each refusal is one pinned line.
func TestPreChecksumFormatsRefused(t *testing.T) {
	old := fmt.Sprintf(journaledAdd, "old1", "old1")
	epochless := fmt.Sprintf("# commit seq=1 len=%d crc=%08x\n", len(old), repl.Checksum([]byte(old)))
	for name, journal := range map[string]string{
		"bare-marker":       old + "# commit\n",
		"epoch-less-marker": old + epochless,
		// A good record first: the refusal must not half-apply the log.
		"good-then-bare": string(repl.RawSegment(1, []byte(old), 1)) + fmt.Sprintf(journaledAdd, "old2", "old2") + "# commit\n",
	} {
		t.Run(name, func(t *testing.T) {
			fault := vfs.NewFault()
			fault.WriteFile(crashJournalPath, []byte(journal))
			for attempt := 1; attempt <= 2; attempt++ {
				srv := newFaultServer(t, fault)
				err := srv.OpenJournal(crashJournalPath)
				if err == nil {
					t.Fatalf("attempt %d: served a pre-checksum journal", attempt)
				}
				for _, want := range []string{"unsupported pre-checksum journal format", "quarantined", "refusing to serve"} {
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("attempt %d: refusal %q lacks %q", attempt, err, want)
					}
				}
				if strings.Contains(err.Error(), "\n") {
					t.Fatalf("refusal is not one line: %q", err)
				}
				if srv.dir.ByDN("uid=old1,ou=attLabs,o=att") != nil || srv.metrics.recReplayed.Load() != 0 {
					t.Fatalf("attempt %d: a refused journal was (half-)replayed", attempt)
				}
			}
			if kept, err := fault.ReadFile(crashJournalPath); err != nil || string(kept) != journal {
				t.Fatalf("refused journal was modified (err=%v)", err)
			}
		})
	}

	// The wire: a primary refuses an epoch-less HELLO in the handshake
	// and drops a subscriber whose ACK lacks its epoch; a replica ends a
	// session whose PING lacks one. Nothing is applied on either side.
	var logged syncBuffer
	primary := newReplServer(t, vfs.NewFault(), 0)
	primary.SetErrorLog(log.New(&logged, "", 0))
	t.Cleanup(func() { primary.Close() })
	addr, err := primary.ListenRepl("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dial := func() (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		return conn, bufio.NewReader(conn)
	}
	conn, br := dial()
	io.WriteString(conn, "REPL HELLO last_seq=0\n")
	if line, _ := br.ReadString('\n'); line != "REPL ERR repl: malformed HELLO \"REPL HELLO last_seq=0\"\n" {
		t.Fatalf("epoch-less HELLO answered %q", line)
	}
	if _, err := br.ReadString('\n'); err != io.EOF {
		t.Fatalf("handshake not closed after the refusal: %v", err)
	}

	conn, br = dial()
	io.WriteString(conn, repl.HelloLine(0, 1))
	if line, _ := br.ReadString('\n'); line != repl.TailHeader(1, 0, 1) {
		t.Fatalf("handshake answered %q", line)
	}
	waitReplicas(t, primary, 1)
	io.WriteString(conn, "REPL ACK seq=0\n")
	if _, err := br.ReadString('\n'); err != io.EOF {
		t.Fatalf("session not closed after an epoch-less ACK: %v", err)
	}
	if !strings.Contains(logged.String(), "repl: malformed ACK \"REPL ACK seq=0\"") {
		t.Fatalf("epoch-less ACK not reported; log:\n%s", logged.String())
	}
	if st := primary.ReplStatus(); st.AckedSeq != 0 {
		t.Fatalf("epoch-less ACK moved acked_seq to %d", st.AckedSeq)
	}

	cli, prim := net.Pipe()
	replica := newReplServer(t, vfs.NewFault(), 0)
	t.Cleanup(func() { replica.Close() })
	runErr := make(chan error, 1)
	go func() { runErr <- repl.Run(cli, replicaTarget{replica}) }()
	pbr := bufio.NewReader(prim)
	pbr.ReadString('\n') // HELLO
	io.WriteString(prim, repl.TailHeader(1, 0, 1))
	io.WriteString(prim, "REPL PING seq=7\n")
	if err := <-runErr; err == nil || err.Error() != "repl: malformed control line \"REPL PING seq=7\"" {
		t.Fatalf("epoch-less PING: Run = %v", err)
	}
	prim.Close()
	if _, seen := replica.ReplicaSeqs(); seen != 0 || commitSeqOf(replica) != 0 {
		t.Fatalf("epoch-less PING moved the replica: primary_seq=%d local=%d", seen, commitSeqOf(replica))
	}
}

// TestRecoverySnapshotRotationSurvivesPowerLoss is the satellite-1
// regression: rotation renames the snapshot into place and truncates
// the journal, so if the rename is not made durable (the parent
// directory fsync) a power loss right after rotation loses every
// compacted commit. The fault FS models exactly that trap.
func TestRecoverySnapshotRotationSurvivesPowerLoss(t *testing.T) {
	fault := vfs.NewFault()
	srv := newFaultServer(t, fault)
	if err := srv.OpenJournal(crashJournalPath); err != nil {
		t.Fatal(err)
	}
	for _, uid := range []string{"p1", "p2"} {
		if err := commitPerson(t, srv, uid); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Rotate(); err != nil {
		t.Fatalf("rotation: %v", err)
	}
	srv.Close()
	fault.Recover() // power loss immediately after rotation

	srv2 := newFaultServer(t, fault)
	if err := srv2.OpenJournal(crashJournalPath); err != nil {
		t.Fatalf("recovery after rotation + power loss: %v", err)
	}
	defer srv2.Close()
	for _, uid := range []string{"p1", "p2"} {
		if srv2.dir.ByDN("uid="+uid+",ou=attLabs,o=att") == nil {
			t.Errorf("compacted entry %s lost to the rename-durability trap", uid)
		}
	}
}

// TestVerifyCommand: the online fsck replies clean on a healthy server
// and ERR once the on-disk journal no longer matches its checksums.
func TestVerifyCommand(t *testing.T) {
	srv, c, journal := startJournaledServer(t, 0)
	c.expectOK("BEGIN")
	c.expectOK(addPersonLines("v1")...)
	body := c.expectOK("VERIFY")
	joined := strings.Join(body, "\n")
	if !strings.Contains(joined, "verify: clean") || !strings.Contains(joined, "legality") {
		t.Fatalf("VERIFY body = %v", body)
	}

	// Flip one payload byte on disk, behind the running server's back.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("changetype"))
	if i < 0 {
		t.Fatalf("no payload to corrupt in %q", data)
	}
	data[i] ^= 0x01
	if err := os.WriteFile(journal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c.send("VERIFY")
	if _, term := c.until(); !strings.HasPrefix(term, "ERR ") || !strings.Contains(term, "corrupt") {
		t.Fatalf("VERIFY over a corrupted journal replied %q", term)
	}
	_ = srv
}

// TestVerifyReportsSnapshotSeq: VERIFY reads the sequence number from
// the snapshot sidecar's header — the seq the rotation compacted up to,
// not the live commit counter that has moved on since.
func TestVerifyReportsSnapshotSeq(t *testing.T) {
	srv, c, _ := startJournaledServer(t, 0)
	for _, uid := range []string{"s1", "s2", "s3"} {
		c.expectOK("BEGIN")
		c.expectOK(addPersonLines(uid)...)
	}
	c.expectOK("SNAPSHOT")
	srv.mu.RLock()
	rotated := srv.commitSeq
	srv.mu.RUnlock()
	if rotated != 3 {
		t.Fatalf("commit seq at SNAPSHOT = %d, want 3", rotated)
	}
	c.expectOK("BEGIN")
	c.expectOK(addPersonLines("s4")...)

	body := c.expectOK("VERIFY")
	want := fmt.Sprintf("# snapshot: present seq=%d", rotated)
	if !slices.Contains(body, want) {
		t.Fatalf("VERIFY body lacks %q: %v", want, body)
	}
}

// TestRecoveryMetricsLine pins the METRICS recovery line's fields after
// a replay: the replayed-record count and the proof's duration in
// microseconds, and no millisecond field.
func TestRecoveryMetricsLine(t *testing.T) {
	fault := vfs.NewFault()
	srv := newFaultServer(t, fault)
	if err := srv.OpenJournal(crashJournalPath); err != nil {
		t.Fatal(err)
	}
	const n = 3
	for i := 0; i < n; i++ {
		if err := commitPerson(t, srv, fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()

	srv2 := newFaultServer(t, fault)
	if err := srv2.OpenJournal(crashJournalPath); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	var line string
	for _, l := range srv2.metrics.lines(true, "", replStatus{role: "primary"}) {
		if strings.HasPrefix(l, "recovery: ") {
			line = l
		}
	}
	if line == "" {
		t.Fatal("METRICS has no recovery line after a replay")
	}
	fields := map[string]string{}
	for _, f := range strings.Fields(strings.TrimPrefix(line, "recovery: ")) {
		k, v, _ := strings.Cut(f, "=")
		fields[k] = v
		if strings.HasSuffix(k, "_ms") {
			t.Errorf("recovery line carries a millisecond field %s: %s", k, line)
		}
	}
	if got := fields["journal_records_replayed"]; got != fmt.Sprint(n) {
		t.Errorf("journal_records_replayed=%s, want %d: %s", got, n, line)
	}
	if _, ok := fields["recovery_legality_us"]; !ok {
		t.Errorf("recovery line lacks recovery_legality_us: %s", line)
	}
}

// TestVerifyCommandWithoutJournal: VERIFY still checks legality when
// journaling is off.
func TestVerifyCommandWithoutJournal(t *testing.T) {
	_, c := startServer(t)
	body := c.expectOK("VERIFY")
	if joined := strings.Join(body, "\n"); !strings.Contains(joined, "journal: off") || !strings.Contains(joined, "verify: clean") {
		t.Fatalf("VERIFY body = %v", body)
	}
}

// TestReadOnlyDegradationUnderFaults is the satellite-3 path: a disk
// whose syncs and truncates all fail forces the server read-only after
// the first COMMIT, but reads keep serving and METRICS says why.
func TestReadOnlyDegradationUnderFaults(t *testing.T) {
	fault := vfs.NewFault()
	s := workload.WhitePagesSchema()
	srv, err := New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetFS(fault)
	if err := srv.OpenJournal(crashJournalPath); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dialClient(t, addr)

	// Every sync and every truncate fails from here on: the failed
	// append cannot be cleaned up, so the journal is untrustworthy.
	fault.SetScript(
		vfs.FaultPoint{Kind: vfs.FaultSyncErr},
		vfs.FaultPoint{Kind: vfs.FaultTruncErr},
	)
	c.expectOK("BEGIN")
	c.send(addPersonLines("doomed")...)
	if _, term := c.until(); !strings.HasPrefix(term, "ERR ") || !strings.Contains(term, "not durable") {
		t.Fatalf("COMMIT on a failing disk replied %q", term)
	}
	c.expectOK("BEGIN")
	c.send(addPersonLines("after")...)
	if _, term := c.until(); !strings.HasPrefix(term, "ERR ") || !strings.Contains(term, "read-only") {
		t.Fatalf("COMMIT after degradation replied %q", term)
	}
	// Reads keep serving the (still legal) in-memory instance.
	c.expectOK("SEARCH (objectClass=person)")
	c.expectOK("CHECK")
	body := c.expectOK("METRICS")
	if joined := strings.Join(body, "\n"); !strings.Contains(joined, "read_only:") {
		t.Fatalf("METRICS does not report the degraded state:\n%s", joined)
	}
}

// TestFsck exercises the offline pipeline over the real file system:
// clean verdict with counters on a healthy journal, refusal + on-disk
// quarantine on a corrupted one.
func TestFsck(t *testing.T) {
	srv, c, journal := startJournaledServer(t, 0)
	for _, uid := range []string{"f1", "f2", "f3"} {
		c.expectOK("BEGIN")
		c.expectOK(addPersonLines(uid)...)
	}
	c.expectOK("QUIT")
	srv.Close()

	s := workload.WhitePagesSchema()
	fsrv, err := New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fsrv.Fsck(journal)
	if err != nil {
		t.Fatalf("fsck of a clean journal: %v", err)
	}
	if !rep.Clean || !rep.Legal || rep.RecordsScanned != 3 || rep.RecordsReplayed != 3 {
		t.Fatalf("fsck report = %+v, want clean, legal, 3 scanned, 3 replayed", rep)
	}
	if joined := strings.Join(rep.Lines(), "\n"); !strings.Contains(joined, "verdict: clean") {
		t.Fatalf("fsck lines = %v", rep.Lines())
	}

	// Corrupt a mid-log byte; fsck must refuse and quarantine.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("changetype"))
	data[i] ^= 0x01
	if err := os.WriteFile(journal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fsrv2, err := New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := fsrv2.Fsck(journal)
	if err == nil {
		t.Fatal("fsck accepted a corrupted journal")
	}
	if !rep2.Quarantined || rep2.QuarantinePath == "" {
		t.Fatalf("fsck report = %+v, want quarantined", rep2)
	}
	if _, serr := os.Stat(rep2.QuarantinePath); serr != nil {
		t.Fatalf("quarantine file missing: %v", serr)
	}
}

// TestScanJournal covers the scanner's verdicts in isolation.
func TestScanJournal(t *testing.T) {
	payload := "dn: uid=x,o=att\nchangetype: add\nobjectClass: person\n\n"
	rec := func(seq uint64) string { return payload + repl.MarkerLine(seq, []byte(payload), 1) }

	t.Run("verified-run", func(t *testing.T) {
		sr := scanJournal([]byte(rec(1) + rec(2) + rec(3)))
		if sr.corrupt || len(sr.txns) != 3 || sr.lastSeq != 3 || sr.tornBytes != 0 {
			t.Fatalf("scan = %+v", sr)
		}
	})
	t.Run("torn-tail", func(t *testing.T) {
		sr := scanJournal([]byte(rec(1) + payload[:17]))
		if sr.corrupt || len(sr.txns) != 1 || sr.tornBytes != 17 {
			t.Fatalf("scan = %+v", sr)
		}
	})
	t.Run("sequence-break", func(t *testing.T) {
		sr := scanJournal([]byte(rec(1) + rec(3)))
		if !sr.corrupt || !strings.Contains(sr.corruptReason, "sequence break") {
			t.Fatalf("scan = %+v", sr)
		}
	})
	t.Run("checksum-mismatch", func(t *testing.T) {
		data := []byte(rec(1) + rec(2))
		data[3] ^= 0x01
		sr := scanJournal(data)
		if !sr.corrupt || !strings.Contains(sr.corruptReason, "checksum mismatch") {
			t.Fatalf("scan = %+v", sr)
		}
		if sr.afterCorrupt != 2 {
			t.Fatalf("afterCorrupt = %d, want 2 (the bad record and everything after)", sr.afterCorrupt)
		}
	})
	t.Run("damaged-marker", func(t *testing.T) {
		sr := scanJournal([]byte(payload + "# commit seq=zap\n"))
		if !sr.corrupt || !strings.Contains(sr.corruptReason, "damaged marker") {
			t.Fatalf("scan = %+v", sr)
		}
	})
	t.Run("no-marker-is-all-torn", func(t *testing.T) {
		sr := scanJournal([]byte(payload + payload))
		if sr.corrupt || len(sr.txns) != 0 || sr.tornBytes != int64(2*len(payload)) {
			t.Fatalf("scan = %+v", sr)
		}
	})
	t.Run("bytes-before-first-marker", func(t *testing.T) {
		// More payload than the marker vouches for is a length mismatch,
		// not pre-marker history to replay.
		sr := scanJournal([]byte(payload + rec(1)))
		if !sr.corrupt || !strings.Contains(sr.corruptReason, "marker says") {
			t.Fatalf("scan = %+v", sr)
		}
	})
}

// TestRecoverySnapshotSeqSkipsReplayedRecords: a journal that still
// contains records the snapshot already compacted (the crash window
// between the snapshot rename and the journal truncate) replays without
// error, skipping exactly those records.
func TestRecoverySnapshotSeqSkipsReplayedRecords(t *testing.T) {
	// Probe pass: the same commits-plus-rotation sequence without
	// faults, to learn how many mutating ops rotation takes.
	setup := func(fault *vfs.Fault) *Server {
		srv := newFaultServer(t, fault)
		if err := srv.OpenJournal(crashJournalPath); err != nil {
			t.Fatal(err)
		}
		for _, uid := range []string{"p1", "p2"} {
			if err := commitPerson(t, srv, uid); err != nil {
				t.Fatal(err)
			}
		}
		return srv
	}
	probe := vfs.NewFault()
	psrv := setup(probe)
	if err := psrv.Rotate(); err != nil {
		t.Fatalf("probe rotation: %v", err)
	}
	psrv.Close()
	total := probe.OpCount()

	// Real pass: crash on rotation's second-to-last op — the journal
	// truncate, whose following sync never runs, so after power loss the
	// durable journal still holds both already-snapshotted records.
	fault := vfs.NewFault()
	srv := setup(fault)
	fault.SetScript(vfs.FaultPoint{Op: total - 1, Kind: vfs.FaultCrash})
	// The truncate lands in the volatile namespace and the sync after it
	// dies with the crash (rotation tolerates that), so the durable
	// journal still holds both records.
	_ = srv.Rotate()
	srv.Close()
	fault.Recover()

	srv2 := newFaultServer(t, fault)
	if err := srv2.OpenJournal(crashJournalPath); err != nil {
		t.Fatalf("recovery in the rename/truncate crash window: %v", err)
	}
	defer srv2.Close()
	if n := srv2.metrics.recScanned.Load(); n == 0 {
		t.Fatalf("journal was empty — the crash point missed the window (scanned=%d)", n)
	}
	for _, uid := range []string{"p1", "p2"} {
		if srv2.dir.ByDN("uid="+uid+",ou=attLabs,o=att") == nil {
			t.Errorf("entry %s lost in the rotation crash window", uid)
		}
	}
	if r := srv2.checker.Check(srv2.dir); !r.Legal() {
		t.Fatalf("recovered instance illegal:\n%s", r)
	}
}

// TestOpenJournalMissingParent: opening a journal in a directory that
// does not exist reports the real error, not a false quarantine.
func TestOpenJournalMissingParent(t *testing.T) {
	s := workload.WhitePagesSchema()
	srv, err := New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "missing", "journal.ldif")
	err = srv.OpenJournal(path)
	if err == nil {
		t.Fatal("OpenJournal succeeded with a missing parent directory")
	}
	if !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("error does not unwrap to fs.ErrNotExist: %v", err)
	}
}

// syncBuffer is a log sink safe to read while server goroutines write.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
