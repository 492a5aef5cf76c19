package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"boundschema/internal/core"
	"boundschema/internal/repl"
	"boundschema/internal/workload"
)

// flakyJournal wraps a real journal file with injectable failures, to
// exercise the non-durable-commit paths.
type flakyJournal struct {
	f            *os.File
	failWrites   bool
	failTruncate bool
}

func (j *flakyJournal) Write(p []byte) (int, error) {
	if j.failWrites {
		return 0, errors.New("disk full (injected)")
	}
	return j.f.Write(p)
}
func (j *flakyJournal) Sync() error { return j.f.Sync() }
func (j *flakyJournal) Truncate(n int64) error {
	if j.failTruncate {
		return errors.New("truncate failed (injected)")
	}
	return j.f.Truncate(n)
}
func (j *flakyJournal) Close() error { return j.f.Close() }

// startJournaledServer builds a whitepages server journaling to a fresh
// temp path and returns it with a connected client and the journal path.
func startJournaledServer(t *testing.T, rotateBytes int64) (*Server, *client, string) {
	t.Helper()
	srv, addr, journal := startGroupServer(t, rotateBytes)
	return srv, dialClient(t, addr), journal
}

// injectJournal swaps the server's journal file for a flaky wrapper.
func injectJournal(srv *Server, fj *flakyJournal) {
	srv.mu.Lock()
	fj.f = srv.journal.f.(*os.File)
	srv.journal.f = fj
	srv.mu.Unlock()
}

func addPersonLines(uid string) []string {
	return []string{
		"ADD uid=" + uid + ",ou=attLabs,o=att",
		"objectClass: person",
		"objectClass: top",
		"name: " + uid,
		"COMMIT",
	}
}

// TestServerCommitJournalWriteFailure is the regression test for the
// acknowledged-but-not-durable bug: a COMMIT whose journal write fails
// must reply ERR, roll the directory back, and leave the journal holding
// exactly the acknowledged commits.
func TestServerCommitJournalWriteFailure(t *testing.T) {
	srv, c, journal := startJournaledServer(t, 0)

	// One durable commit first.
	c.expectOK("BEGIN")
	c.expectOK(addPersonLines("durable")...)

	// Break the journal, then try to commit.
	fj := &flakyJournal{failWrites: true}
	injectJournal(srv, fj)
	c.expectOK("BEGIN")
	c.send(addPersonLines("lost")...)
	if _, term := c.until(); !strings.HasPrefix(term, "ERR ") || !strings.Contains(term, "not durable") {
		t.Fatalf("failed-journal COMMIT replied %q, want ERR ... not durable", term)
	}

	// The directory rolled back: the ERR'd entry is gone, the instance is
	// still legal, and the server is not read-only (the journal was
	// restored to a consistent prefix).
	c.expectOK("CHECK")
	srv.mu.RLock()
	if srv.dir.ByDN("uid=lost,ou=attLabs,o=att") != nil {
		t.Errorf("non-durable commit left the entry in the directory")
	}
	if srv.readOnly != "" {
		t.Errorf("server read-only after a recoverable journal failure: %s", srv.readOnly)
	}
	srv.mu.RUnlock()

	// Heal the journal; commits work again.
	fj.failWrites = false
	c.expectOK("BEGIN")
	c.expectOK(addPersonLines("healed")...)
	c.expectOK("QUIT")
	srv.Close()

	// A restart from the same snapshot + journal reproduces exactly the
	// acknowledged commits: durable and healed, never lost.
	s := workload.WhitePagesSchema()
	srv2, err := New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.OpenJournal(journal); err != nil {
		t.Fatalf("replay after failed write: %v", err)
	}
	defer srv2.Close()
	if srv2.dir.ByDN("uid=durable,ou=attLabs,o=att") == nil {
		t.Errorf("durable commit lost on replay")
	}
	if srv2.dir.ByDN("uid=healed,ou=attLabs,o=att") == nil {
		t.Errorf("post-failure commit lost on replay")
	}
	if srv2.dir.ByDN("uid=lost,ou=attLabs,o=att") != nil {
		t.Errorf("ERR'd commit reappeared on replay")
	}
}

// TestServerJournalFailureMarksReadOnly: when the failed append cannot
// even be truncated away, the server must stop accepting writes.
func TestServerJournalFailureMarksReadOnly(t *testing.T) {
	srv, c, _ := startJournaledServer(t, 0)
	injectJournal(srv, &flakyJournal{failWrites: true, failTruncate: true})

	c.expectOK("BEGIN")
	c.send(addPersonLines("doomed")...)
	if _, term := c.until(); !strings.HasPrefix(term, "ERR ") {
		t.Fatalf("failed COMMIT replied %q", term)
	}

	c.expectOK("BEGIN")
	c.send(addPersonLines("after")...)
	if _, term := c.until(); !strings.HasPrefix(term, "ERR ") || !strings.Contains(term, "read-only") {
		t.Fatalf("COMMIT on a read-only server replied %q", term)
	}
	c.send("SNAPSHOT")
	if _, term := c.until(); !strings.HasPrefix(term, "ERR ") || !strings.Contains(term, "read-only") {
		t.Fatalf("SNAPSHOT on a read-only server replied %q", term)
	}
	// Reads still work.
	c.expectOK("SEARCH (objectClass=person)")
	c.expectOK("CHECK")
}

// TestServerJournalRotation: once the journal crosses the threshold, a
// commit triggers compaction — the instance lands in the snapshot
// sidecar, the journal is truncated, and a restart reproduces the state
// from snapshot + (short) journal.
func TestServerJournalRotation(t *testing.T) {
	srv, c, journal := startJournaledServer(t, 64) // tiny threshold: every commit rotates
	for _, uid := range []string{"rot1", "rot2", "rot3"} {
		c.expectOK("BEGIN")
		c.expectOK(addPersonLines(uid)...)
	}
	// The committer rotates right after acknowledging the batch, so give
	// the asynchronous compaction a moment to land.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, err := os.Stat(journal)
		if err == nil && st.Size() == 0 && srv.metrics.JournalRotations.Load() > 0 {
			break
		}
		if time.Now().After(deadline) {
			n := srv.metrics.JournalRotations.Load()
			t.Fatalf("journal not compacted after 3 commits over a 64-byte threshold: rotations=%d stat=%v", n, err)
		}
		time.Sleep(time.Millisecond)
	}
	snap := journal + ".snapshot"
	if st, err := os.Stat(snap); err != nil || st.Size() == 0 {
		t.Fatalf("snapshot sidecar missing or empty: %v", err)
	}
	c.expectOK("QUIT")
	srv.Close()

	// Restart: the snapshot replaces the initial instance.
	s := workload.WhitePagesSchema()
	srv2, err := New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.OpenJournal(journal); err != nil {
		t.Fatalf("restart from snapshot: %v", err)
	}
	defer srv2.Close()
	for _, uid := range []string{"rot1", "rot2", "rot3"} {
		if srv2.dir.ByDN("uid="+uid+",ou=attLabs,o=att") == nil {
			t.Errorf("entry %s lost across rotation + restart", uid)
		}
	}
	if r := core.NewChecker(s).Check(srv2.dir); !r.Legal() {
		t.Fatalf("restored instance illegal:\n%s", r)
	}
}

// TestServerJournalReplayMultiRecordTransaction: a transaction that is
// only legal atomically (an orgGroup ADDed together with its first
// person) must survive restart. The regression was replaying the
// journal record-by-record, which rejected the intermediate state.
func TestServerJournalReplayMultiRecordTransaction(t *testing.T) {
	srv, c, journal := startJournaledServer(t, 0)
	c.expectOK("BEGIN")
	c.expectOK(
		"ADD ou=atomic,ou=attLabs,o=att",
		"objectClass: orgUnit",
		"objectClass: orgGroup",
		"objectClass: top",
		"ADD uid=first,ou=atomic,ou=attLabs,o=att",
		"objectClass: person",
		"objectClass: top",
		"name: first person",
		"COMMIT",
	)
	c.expectOK("QUIT")
	srv.Close()

	s := workload.WhitePagesSchema()
	srv2, err := New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.OpenJournal(journal); err != nil {
		t.Fatalf("replay of a multi-record transaction: %v", err)
	}
	defer srv2.Close()
	if srv2.dir.ByDN("uid=first,ou=atomic,ou=attLabs,o=att") == nil {
		t.Errorf("atomically-committed entry lost on replay")
	}
	if r := core.NewChecker(s).Check(srv2.dir); !r.Legal() {
		t.Fatalf("restored instance illegal:\n%s", r)
	}
}

const journaledAdd = "dn: uid=%s,ou=attLabs,o=att\n" +
	"changetype: add\n" +
	"objectClass: person\n" +
	"objectClass: top\n" +
	"name: %s\n\n"

// TestServerJournalTornTailDiscarded: bytes after the last commit
// marker belong to a write that was never acknowledged (the marker is
// fsynced before OK); a restart discards them and keeps appending to
// the clean prefix.
func TestServerJournalTornTailDiscarded(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.ldif")
	content := string(repl.RawSegment(1, []byte(fmt.Sprintf(journaledAdd, "acked", "acked")), 1)) +
		"dn: uid=torn,ou=attLabs,o=att\nchangetype: add\nobjectCla" // torn mid-write
	if err := os.WriteFile(journal, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	s := workload.WhitePagesSchema()
	srv, err := Open(Options{Schema: s, Name: "whitepages", Instance: workload.WhitePagesInstance(s),
		Addr: "127.0.0.1:0", Journal: journal})
	if err != nil {
		t.Fatalf("replay with torn tail: %v", err)
	}
	if srv.dir.ByDN("uid=acked,ou=attLabs,o=att") == nil {
		t.Errorf("acknowledged entry lost on replay")
	}
	if srv.dir.ByDN("uid=torn,ou=attLabs,o=att") != nil {
		t.Errorf("unacknowledged torn write replayed")
	}

	// The torn bytes are gone from disk; new commits extend a clean log.
	c := dialClient(t, srv.Addr())
	c.expectOK("BEGIN")
	c.expectOK(addPersonLines("posttorn")...)
	c.expectOK("QUIT")
	srv.Close()

	srv2, err := New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.OpenJournal(journal); err != nil {
		t.Fatalf("replay after torn-tail recovery: %v", err)
	}
	defer srv2.Close()
	for _, uid := range []string{"acked", "posttorn"} {
		if srv2.dir.ByDN("uid="+uid+",ou=attLabs,o=att") == nil {
			t.Errorf("entry %s lost after torn-tail recovery", uid)
		}
	}
}

// TestServerSnapshotCommand: SNAPSHOT forces compaction on demand.
func TestServerSnapshotCommand(t *testing.T) {
	srv, c, journal := startJournaledServer(t, 0) // rotation off: only SNAPSHOT compacts
	c.expectOK("BEGIN")
	c.expectOK(addPersonLines("snapme")...)
	if st, err := os.Stat(journal); err != nil || st.Size() == 0 {
		t.Fatalf("journal empty before SNAPSHOT: %v", err)
	}
	body := c.expectOK("SNAPSHOT")
	if len(body) == 0 || !strings.Contains(body[0], "compacted") {
		t.Errorf("SNAPSHOT body = %v", body)
	}
	if st, err := os.Stat(journal); err != nil || st.Size() != 0 {
		t.Fatalf("journal not truncated by SNAPSHOT: err=%v", err)
	}
	if _, err := os.Stat(journal + ".snapshot"); err != nil {
		t.Fatalf("snapshot sidecar missing: %v", err)
	}
	c.expectOK("QUIT")
	srv.Close()

	s := workload.WhitePagesSchema()
	srv2, err := New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.OpenJournal(journal); err != nil {
		t.Fatalf("restart after SNAPSHOT: %v", err)
	}
	defer srv2.Close()
	if srv2.dir.ByDN("uid=snapme,ou=attLabs,o=att") == nil {
		t.Errorf("entry lost across SNAPSHOT + restart")
	}
}

// TestServerSnapshotCommandWithoutJournal: SNAPSHOT needs a journal.
func TestServerSnapshotCommandWithoutJournal(t *testing.T) {
	_, c := startServer(t)
	c.send("SNAPSHOT")
	if _, term := c.until(); !strings.HasPrefix(term, "ERR ") {
		t.Errorf("SNAPSHOT without journal: %q", term)
	}
}
