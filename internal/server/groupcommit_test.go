package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"boundschema/internal/core"
	"boundschema/internal/ldif"
	"boundschema/internal/proto"
	"boundschema/internal/workload"
)

// blockingJournal wraps the real journal file with a gated, optionally
// slow or failing Sync, so tests can hold an fsync in flight while more
// commits stage behind it — the window the group-commit pipeline exists
// for.
type blockingJournal struct {
	f        *os.File
	gate     chan struct{} // Sync parks here until the test closes it; nil = no gate
	delay    time.Duration // every Sync sleeps this long first: a slow disk
	syncing  chan struct{} // buffered(1); signaled when a Sync starts
	failSync atomic.Bool
	// failTrunc fails every Truncate: with failSync, a batch failure
	// becomes unrecoverable. Set before injecting.
	failTrunc bool
	syncs     atomic.Int64
}

func (j *blockingJournal) Write(p []byte) (int, error) { return j.f.Write(p) }

func (j *blockingJournal) Sync() error {
	j.syncs.Add(1)
	select {
	case j.syncing <- struct{}{}:
	default:
	}
	if j.gate != nil {
		<-j.gate
	}
	time.Sleep(j.delay)
	if j.failSync.Load() {
		return errors.New("fsync failed (injected)")
	}
	return j.f.Sync()
}

func (j *blockingJournal) Truncate(n int64) error {
	if j.failTrunc {
		return errors.New("truncate failed (injected)")
	}
	return j.f.Truncate(n)
}
func (j *blockingJournal) Close() error { return j.f.Close() }

// injectBlocking swaps in the gated journal. Taking srv.mu orders the
// swap before any commit staged afterwards, and the committer only
// touches the file while processing staged work, so the committer's next
// read of journal.f observes the swap.
func injectBlocking(srv *Server, bj *blockingJournal) {
	srv.mu.Lock()
	bj.f = srv.journal.f.(*os.File)
	srv.journal.f = bj
	srv.mu.Unlock()
}

// startGroupServer is startJournaledServer minus the pre-dialed client:
// group-commit tests open several connections themselves.
func startGroupServer(t *testing.T, rotateBytes int64) (*Server, string, string) {
	t.Helper()
	journal := filepath.Join(t.TempDir(), "journal.ldif")
	srv := openServer(t, Options{Journal: journal, JournalRotate: rotateBytes})
	return srv, srv.Addr(), journal
}

// waitStaged polls until at least n records sit in the committer's
// staging queue (i.e. applied but waiting behind an in-flight fsync).
func waitStaged(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.committer.mu.Lock()
		got := len(srv.committer.staged)
		srv.committer.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d commits staged behind the in-flight sync", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// encodeDir serializes the live directory, for byte-identity checks.
func encodeDir(t *testing.T, srv *Server) string {
	t.Helper()
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	var buf bytes.Buffer
	if err := ldif.WriteDirectory(&buf, srv.dir); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func waitSyncStart(t *testing.T, bj *blockingJournal) {
	t.Helper()
	select {
	case <-bj.syncing:
	case <-time.After(5 * time.Second):
		t.Fatal("no Sync started within 5s")
	}
}

// TestGroupCommitBatchesConcurrentCommits is the tentpole's happy path:
// commits staged while an fsync is in flight coalesce into one batch
// (one write + one Sync), readers are never blocked by the disk, and a
// restart replays every acknowledged commit.
func TestGroupCommitBatchesConcurrentCommits(t *testing.T) {
	srv, addr, journal := startGroupServer(t, 0)
	const writers = 8
	clients := make([]*client, writers)
	for i := range clients {
		clients[i] = dialClient(t, addr)
		clients[i].expectOK("BEGIN")
		// Everything but the COMMIT line: the transaction is built but
		// not yet submitted.
		lines := addPersonLines(fmt.Sprintf("gc%d", i))
		clients[i].send(lines[:len(lines)-1]...)
	}

	bj := &blockingJournal{gate: make(chan struct{}), syncing: make(chan struct{}, 1)}
	injectBlocking(srv, bj)

	// First COMMIT opens a batch whose fsync parks on the gate...
	clients[0].send("COMMIT")
	waitSyncStart(t, bj)
	// ...and the other seven apply and stage behind it.
	for _, c := range clients[1:] {
		c.send("COMMIT")
	}
	waitStaged(t, srv, writers-1)

	// Reader liveness: a SEARCH completes while the fsync is still in
	// flight, because the disk works outside the server's write lock.
	reader := dialClient(t, addr)
	type searchResult struct {
		term string
		err  error
	}
	res := make(chan searchResult, 1)
	go func() {
		if _, err := reader.conn.Write([]byte("SEARCH (objectClass=person)\n")); err != nil {
			res <- searchResult{err: err}
			return
		}
		rep, err := proto.ReadReply(reader.r)
		res <- searchResult{term: termLine(rep), err: err}
	}()
	select {
	case r := <-res:
		if r.err != nil || r.term != "OK" {
			t.Fatalf("SEARCH during in-flight sync: term=%q err=%v", r.term, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SEARCH blocked behind an in-flight fsync")
	}

	// Release the disk: the gated batch lands, then the seven staged
	// commits land as ONE batch — two Syncs for eight commits.
	close(bj.gate)
	for i, c := range clients {
		if _, term := c.until(); term != "OK" {
			t.Fatalf("commit %d replied %q", i, term)
		}
	}
	if got := bj.syncs.Load(); got != 2 {
		t.Errorf("syncs for 1+7 batched commits = %d, want 2", got)
	}
	if f, n := srv.metrics.Fsyncs(), srv.metrics.BatchedCommits(); f != 2 || n != writers {
		t.Errorf("metrics fsyncs=%d commits=%d, want 2 and %d", f, n, writers)
	}
	if mx := srv.metrics.batchSizes.maxUS.Load(); mx != writers-1 {
		t.Errorf("max batch = %d, want %d", mx, writers-1)
	}

	// OK meant durable: a restart from the journal has all eight.
	srv.Close()
	s := workload.WhitePagesSchema()
	srv2, err := New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.OpenJournal(journal); err != nil {
		t.Fatalf("replay after batched commits: %v", err)
	}
	defer srv2.Close()
	for i := 0; i < writers; i++ {
		dn := fmt.Sprintf("uid=gc%d,ou=attLabs,o=att", i)
		if srv2.dir.ByDN(dn) == nil {
			t.Errorf("acknowledged commit %s lost on replay", dn)
		}
	}
}

// TestGroupCommitFailedBatchRollsBack: when the batch's fsync fails,
// every member — and every commit staged on top of it — is rolled back
// in reverse apply order, the journal keeps only acknowledged commits,
// and the directory is byte-identical to the pre-batch state.
func TestGroupCommitFailedBatchRollsBack(t *testing.T) {
	srv, addr, journal := startGroupServer(t, 0)
	c0 := dialClient(t, addr)
	c0.expectOK("BEGIN")
	c0.expectOK(addPersonLines("durable")...)

	pre := encodeDir(t, srv)

	bj := &blockingJournal{gate: make(chan struct{}), syncing: make(chan struct{}, 1)}
	bj.failSync.Store(true)
	injectBlocking(srv, bj)

	cs := []*client{dialClient(t, addr), dialClient(t, addr), dialClient(t, addr)}
	cs[0].expectOK("BEGIN")
	cs[0].send(addPersonLines("lost0")...)
	waitSyncStart(t, bj)
	// Two more commits apply and stage on top of the doomed batch.
	for i, c := range cs[1:] {
		c.expectOK("BEGIN")
		c.send(addPersonLines(fmt.Sprintf("lost%d", i+1))...)
	}
	waitStaged(t, srv, 2)

	close(bj.gate) // the fsync now fails
	for i, c := range cs {
		if _, term := c.until(); !strings.HasPrefix(term, "ERR ") || !strings.Contains(term, "not durable") {
			t.Fatalf("commit %d on a failed batch replied %q, want ERR ... not durable", i, term)
		}
	}

	if post := encodeDir(t, srv); post != pre {
		t.Errorf("directory not byte-identical to pre-batch state after rollback:\n--- pre ---\n%s\n--- post ---\n%s", pre, post)
	}
	srv.mu.RLock()
	readOnly := srv.readOnly
	srv.mu.RUnlock()
	if readOnly != "" {
		t.Fatalf("server read-only after a recoverable batch failure: %s", readOnly)
	}

	// Heal the disk; commits are durable again.
	bj.failSync.Store(false)
	cs[0].expectOK("BEGIN")
	cs[0].expectOK(addPersonLines("healed")...)
	srv.Close()

	// The journal replays to exactly the acknowledged commits.
	s := workload.WhitePagesSchema()
	srv2, err := New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.OpenJournal(journal); err != nil {
		t.Fatalf("replay after failed batch: %v", err)
	}
	defer srv2.Close()
	for _, uid := range []string{"durable", "healed"} {
		if srv2.dir.ByDN("uid="+uid+",ou=attLabs,o=att") == nil {
			t.Errorf("acknowledged commit %s lost on replay", uid)
		}
	}
	for _, uid := range []string{"lost0", "lost1", "lost2"} {
		if srv2.dir.ByDN("uid="+uid+",ou=attLabs,o=att") != nil {
			t.Errorf("ERR'd commit %s reappeared on replay", uid)
		}
	}
	if r := core.NewChecker(s).Check(srv2.dir); !r.Legal() {
		t.Fatalf("restored instance illegal:\n%s", r)
	}
}

// TestGroupCommitConcurrentStress hammers the pipeline under -race:
// eight writer sessions commit concurrently against an artificially slow
// disk while readers run, and the fsync count stays below the commit
// count (i.e. batching actually happened).
func TestGroupCommitConcurrentStress(t *testing.T) {
	srv, addr, journal := startGroupServer(t, 0)
	injectBlocking(srv, &blockingJournal{delay: 2 * time.Millisecond, syncing: make(chan struct{}, 1)})
	const writers, commitsPer = 8, 5

	var wg sync.WaitGroup
	errs := make(chan error, writers+2)
	stop := make(chan struct{})
	send := func(conn net.Conn, r *bufio.Reader, lines ...string) (string, error) {
		for _, l := range lines {
			if _, err := conn.Write([]byte(l + "\n")); err != nil {
				return "", err
			}
		}
		rep, err := proto.ReadReply(r)
		return termLine(rep), err
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for i := 0; i < commitsPer; i++ {
				if term, err := send(conn, r, "BEGIN"); err != nil || term != "OK" {
					errs <- fmt.Errorf("writer %d BEGIN: %q %v", w, term, err)
					return
				}
				lines := addPersonLines(fmt.Sprintf("sw%dc%d", w, i))
				if term, err := send(conn, r, lines...); err != nil || term != "OK" {
					errs <- fmt.Errorf("writer %d COMMIT %d: %q %v", w, i, term, err)
					return
				}
			}
		}(w)
	}
	for rdr := 0; rdr < 2; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if term, err := send(conn, r, "SEARCH (objectClass=person)"); err != nil || term != "OK" {
					errs <- fmt.Errorf("reader: %q %v", term, err)
					return
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Writers finish first; then release the readers.
	go func() {
		for {
			if srv.metrics.TxCommitted.Load() >= writers*commitsPer {
				close(stop)
				return
			}
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := int64(writers * commitsPer)
	if got := srv.metrics.BatchedCommits(); got != total {
		t.Errorf("batched commits = %d, want %d", got, total)
	}
	if f := srv.metrics.Fsyncs(); f >= total {
		t.Errorf("fsyncs = %d for %d concurrent commits on a slow disk: no batching happened", f, total)
	}

	srv.Close()
	s := workload.WhitePagesSchema()
	srv2, err := New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.OpenJournal(journal); err != nil {
		t.Fatalf("replay after stress: %v", err)
	}
	defer srv2.Close()
	for w := 0; w < writers; w++ {
		for i := 0; i < commitsPer; i++ {
			dn := fmt.Sprintf("uid=sw%dc%d,ou=attLabs,o=att", w, i)
			if srv2.dir.ByDN(dn) == nil {
				t.Errorf("entry %s lost on replay", dn)
			}
		}
	}
	if r := core.NewChecker(s).Check(srv2.dir); !r.Legal() {
		t.Fatalf("restored instance illegal:\n%s", r)
	}
}

// TestGroupCommitSnapshotDrainsBacklog: SNAPSHOT while commits are
// staged behind a blocked fsync must flush the backlog first and then
// compact — never snapshot state the journal would replay again.
func TestGroupCommitSnapshotDrainsBacklog(t *testing.T) {
	srv, addr, journal := startGroupServer(t, 0)
	bj := &blockingJournal{gate: make(chan struct{}), syncing: make(chan struct{}, 1)}
	injectBlocking(srv, bj)

	c1 := dialClient(t, addr)
	c1.expectOK("BEGIN")
	c1.send(addPersonLines("snapbase")...)
	waitSyncStart(t, bj)
	c2 := dialClient(t, addr)
	c2.expectOK("BEGIN")
	c2.send(addPersonLines("snapstaged")...)
	waitStaged(t, srv, 1)

	snapper := dialClient(t, addr)
	if _, err := snapper.conn.Write([]byte("SNAPSHOT\n")); err != nil {
		t.Fatal(err)
	}
	close(bj.gate)
	if _, term := c1.until(); term != "OK" {
		t.Fatalf("gated commit replied %q", term)
	}
	if _, term := c2.until(); term != "OK" {
		t.Fatalf("staged commit replied %q", term)
	}
	if _, term := snapper.until(); term != "OK" {
		t.Fatalf("SNAPSHOT behind a blocked sync replied %q", term)
	}
	srv.Close()

	// The snapshot + (empty) journal reproduce both commits exactly once.
	s := workload.WhitePagesSchema()
	srv2, err := New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.OpenJournal(journal); err != nil {
		t.Fatalf("replay after SNAPSHOT during batch: %v", err)
	}
	defer srv2.Close()
	for _, uid := range []string{"snapbase", "snapstaged"} {
		if srv2.dir.ByDN("uid="+uid+",ou=attLabs,o=att") == nil {
			t.Errorf("entry %s lost across SNAPSHOT + restart", uid)
		}
	}
}

// TestRotateQueuedBehindFailedBatchIsRefused: a Rotate that passed its
// read-only check and queued behind an in-flight batch must re-check at
// the quiescent point. Here the batch's fsync fails and the cleanup
// truncate fails too, so the server is read-only by the time the
// rotation's turn comes: it is refused, and neither snapshot nor journal
// is touched.
func TestRotateQueuedBehindFailedBatchIsRefused(t *testing.T) {
	srv, addr, journal := startGroupServer(t, 0)
	c := dialClient(t, addr)
	c.expectOK("BEGIN")
	c.expectOK(addPersonLines("durable")...)
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}

	bj := &blockingJournal{gate: make(chan struct{}), syncing: make(chan struct{}, 1), failTrunc: true}
	bj.failSync.Store(true)
	injectBlocking(srv, bj)

	c.expectOK("BEGIN")
	c.send(addPersonLines("doomed")...)
	waitSyncStart(t, bj)
	rotated := make(chan error, 1)
	go func() { rotated <- srv.rotate() }()
	// Rotate holds no lock while it waits, so "queued" is observable.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.committer.mu.Lock()
		queued := len(srv.committer.quiesces)
		srv.committer.mu.Unlock()
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Rotate never queued behind the in-flight batch")
		}
		time.Sleep(time.Millisecond)
	}

	close(bj.gate) // the fsync fails, and so does the truncate
	if _, term := c.until(); !strings.HasPrefix(term, "ERR ") || !strings.Contains(term, "not durable") {
		t.Fatalf("commit on the failed batch replied %q", term)
	}
	if err := <-rotated; err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("Rotate queued behind a batch that degraded the server = %v, want a read-only refusal", err)
	}
	if n := srv.metrics.JournalRotations.Load(); n != 0 {
		t.Errorf("rotations = %d on a read-only server", n)
	}
	if _, err := os.Stat(journal + ".snapshot"); !os.IsNotExist(err) {
		t.Errorf("a refused rotation left a snapshot behind (stat err=%v)", err)
	}
	if after, _ := os.ReadFile(journal); !bytes.HasPrefix(after, before) {
		t.Errorf("journal lost acknowledged bytes across the refused rotation")
	}
}

// TestDegradeKeepsFirstReason: a primary fenced while a batch's fsync is
// in flight stays fenced when that batch then fails beyond repair (the
// Sync and the cleanup truncate both fail). The first read-only reason
// stands, so STAT still says "fenced" and every refusal keeps the
// proto.Fenced stem that failover tooling and loadgen's error taxonomy
// match on.
func TestDegradeKeepsFirstReason(t *testing.T) {
	srv, addr, _ := startGroupServer(t, 0)
	bj := &blockingJournal{gate: make(chan struct{}), syncing: make(chan struct{}, 1), failTrunc: true}
	bj.failSync.Store(true)
	injectBlocking(srv, bj)

	c := dialClient(t, addr)
	c.expectOK("BEGIN")
	c.send(addPersonLines("doomed")...)
	waitSyncStart(t, bj)
	srv.fence(srv.Epoch()+1, "a test")
	close(bj.gate) // the fsync fails, and so does the truncate
	if _, term := c.until(); !strings.Contains(term, proto.NotDurable) {
		t.Fatalf("commit on the failed batch replied %q", term)
	}

	srv.mu.RLock()
	reason := srv.readOnly
	srv.mu.RUnlock()
	if !strings.HasPrefix(reason, proto.Fenced) {
		t.Errorf("read-only reason = %q, want the fence's %q stem to stand", reason, proto.Fenced)
	}
	if body := c.expectOK("STAT"); body[0] != "role: fenced" {
		t.Errorf("STAT after the failed batch = %v, want role: fenced", body)
	}
	c.expectOK("BEGIN")
	c.send(addPersonLines("refused")...)
	if _, term := c.until(); !strings.Contains(term, proto.Fenced) {
		t.Errorf("COMMIT on the fenced primary replied %q, want the %q stem", term, proto.Fenced)
	}
	if n := srv.metrics.FencingEvents.Load(); n != 1 {
		t.Errorf("fencing events = %d, want 1", n)
	}
}
