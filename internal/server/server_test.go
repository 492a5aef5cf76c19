package server

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/proto"
	"boundschema/internal/workload"
)

// client is a tiny test client for the line protocol.
type client struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

// openServer opens a server with o on a free port, over the Figure 1
// whitepages instance unless o names a schema; the test's cleanup
// closes it.
func openServer(t *testing.T, o Options) *Server {
	t.Helper()
	if o.Schema == nil {
		o.Schema, o.Name = workload.WhitePagesSchema(), "whitepages"
		o.Instance = workload.WhitePagesInstance(o.Schema)
	}
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	srv, err := Open(o)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func startServer(t *testing.T) (*Server, *client) {
	t.Helper()
	srv := openServer(t, Options{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return srv, &client{t: t, conn: conn, r: bufio.NewReader(conn)}
}

func (c *client) send(lines ...string) {
	c.t.Helper()
	for _, l := range lines {
		if _, err := c.conn.Write([]byte(l + "\n")); err != nil {
			c.t.Fatal(err)
		}
	}
}

// until reads one reply and returns its payload plus the terminator
// line (OK, ILLEGAL or the whole "ERR <message>").
func (c *client) until() ([]string, string) {
	c.t.Helper()
	rep, err := proto.ReadReply(c.r)
	if err != nil {
		c.t.Fatalf("read: %v (body so far %v)", err, rep.Lines)
	}
	return rep.Lines, termLine(rep)
}

// termLine renders a reply's terminator line.
func termLine(rep proto.Reply) string {
	if rep.Term == "ERR" {
		return "ERR " + rep.Err
	}
	return rep.Term
}

func (c *client) expectOK(lines ...string) []string {
	c.t.Helper()
	c.send(lines...)
	body, term := c.until()
	if term != "OK" {
		c.t.Fatalf("expected OK, got %q (body %v)", term, body)
	}
	return body
}

func TestServerSearch(t *testing.T) {
	_, c := startServer(t)
	body := c.expectOK("SEARCH (objectClass=person)")
	if len(body) != 3 {
		t.Errorf("persons = %v", body)
	}
	body = c.expectOK("SEARCH (&(objectClass=person)(mail=*)) base=ou=attLabs,o=att")
	if len(body) != 1 || !strings.Contains(body[0], "uid=laks") {
		t.Errorf("scoped search = %v", body)
	}
	c.send("SEARCH (bad")
	if _, term := c.until(); !strings.HasPrefix(term, "ERR ") {
		t.Errorf("bad filter: %q", term)
	}
}

// TestServerSearchLimit: limit=N truncates the reply to the first N
// matches in pre-order; 0 is a valid limit and the default is unlimited.
func TestServerSearchLimit(t *testing.T) {
	_, c := startServer(t)
	all := c.expectOK("SEARCH (objectClass=person)")
	if len(all) != 3 {
		t.Fatalf("persons = %v", all)
	}
	body := c.expectOK("SEARCH (objectClass=person) limit=2")
	if len(body) != 2 || body[0] != all[0] || body[1] != all[1] {
		t.Errorf("limit=2 = %v, want the first two of %v", body, all)
	}
	if body = c.expectOK("SEARCH (objectClass=person) limit=0"); len(body) != 0 {
		t.Errorf("limit=0 returned %v", body)
	}
	if body = c.expectOK("SEARCH (objectClass=person) limit=100"); len(body) != 3 {
		t.Errorf("limit beyond the result size = %v", body)
	}
	body = c.expectOK("SEARCH (objectClass=person) base=ou=attLabs,o=att limit=1")
	if len(body) != 1 || body[0] != all[0] {
		t.Errorf("base + limit = %v", body)
	}
}

func TestServerQuery(t *testing.T) {
	_, c := startServer(t)
	body := c.expectOK("QUERY (minus (select (objectClass=orgGroup)) (desc (select (objectClass=orgGroup)) (select (objectClass=person))))")
	if len(body) != 0 {
		t.Errorf("Q1 should be empty on a legal instance: %v", body)
	}
}

func TestServerGet(t *testing.T) {
	_, c := startServer(t)
	body := c.expectOK("GET uid=laks,ou=databases,ou=attLabs,o=att")
	joined := strings.Join(body, "\n")
	for _, want := range []string{"dn: uid=laks", "objectClass: researcher", "mail: laks@cs.concordia.ca"} {
		if !strings.Contains(joined, want) {
			t.Errorf("GET output missing %q:\n%s", want, joined)
		}
	}
	c.send("GET uid=ghost,o=att")
	if _, term := c.until(); !strings.HasPrefix(term, "ERR ") {
		t.Errorf("missing entry: %q", term)
	}
}

func TestServerLegalTransaction(t *testing.T) {
	srv, c := startServer(t)
	c.expectOK("BEGIN")
	c.expectOK(
		"ADD ou=networking,ou=attLabs,o=att",
		"objectClass: orgUnit",
		"objectClass: orgGroup",
		"objectClass: top",
		"ADD uid=pat,ou=networking,ou=attLabs,o=att",
		"objectClass: person",
		"objectClass: top",
		"name: pat doe",
		"DELETE uid=armstrong,ou=attLabs,o=att",
		"COMMIT",
	)
	c.expectOK("CHECK")
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	if srv.dir.ByDN("uid=pat,ou=networking,ou=attLabs,o=att") == nil {
		t.Errorf("commit not applied")
	}
	if srv.dir.ByDN("uid=armstrong,ou=attLabs,o=att") != nil {
		t.Errorf("delete not applied")
	}
}

func TestServerIllegalTransactionRollsBack(t *testing.T) {
	srv, c := startServer(t)
	c.expectOK("BEGIN")
	c.send(
		"ADD ou=empty,ou=attLabs,o=att",
		"objectClass: orgUnit",
		"objectClass: orgGroup",
		"objectClass: top",
		"COMMIT",
	)
	body, term := c.until()
	if term != "ILLEGAL" {
		t.Fatalf("expected ILLEGAL, got %q (%v)", term, body)
	}
	found := false
	for _, l := range body {
		if strings.Contains(l, "orgGroup →de person") {
			found = true
		}
	}
	if !found {
		t.Errorf("violation detail missing: %v", body)
	}
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	if srv.dir.Len() != 6 {
		t.Errorf("rollback incomplete: %d entries", srv.dir.Len())
	}
}

func TestServerAbort(t *testing.T) {
	srv, c := startServer(t)
	c.expectOK("BEGIN")
	c.send("ADD uid=x,ou=attLabs,o=att", "objectClass: person", "objectClass: top", "name: x")
	c.expectOK("ABORT")
	c.expectOK("CHECK")
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	if srv.dir.Len() != 6 {
		t.Errorf("abort leaked entries")
	}
}

func TestServerSchemaAndStat(t *testing.T) {
	_, c := startServer(t)
	body := c.expectOK("SCHEMA")
	if !strings.Contains(strings.Join(body, "\n"), "require orgGroup descendant person") {
		t.Errorf("SCHEMA output missing structure element")
	}
	body = c.expectOK("STAT")
	joined := strings.Join(body, "\n")
	if !strings.Contains(joined, "entries: 6") || !strings.Contains(joined, "class person: 3") {
		t.Errorf("STAT output wrong:\n%s", joined)
	}
	body = c.expectOK("CONSISTENT")
	if !strings.Contains(strings.Join(body, "\n"), "consistent: true") {
		t.Errorf("CONSISTENT output wrong: %v", body)
	}
}

func TestServerUnknownCommand(t *testing.T) {
	_, c := startServer(t)
	c.send("FROBNICATE now")
	if _, term := c.until(); !strings.HasPrefix(term, "ERR ") {
		t.Errorf("unknown command: %q", term)
	}
	c.expectOK("QUIT")
}

func TestServerRejectsIllegalInitialInstance(t *testing.T) {
	s := workload.WhitePagesSchema()
	d := dirtree.New(s.Registry)
	if _, err := d.AddRoot("ou=empty", "orgUnit", "orgGroup", "top"); err != nil {
		t.Fatal(err)
	}
	if _, err := New(s, "x", d); err == nil {
		t.Fatalf("illegal initial instance accepted")
	}
}

func TestServerConcurrentReaders(t *testing.T) {
	srv, _ := startServer(t)
	addr := srv.ln.Addr().String()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				done <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for k := 0; k < 20; k++ {
				if _, err := conn.Write([]byte("SEARCH (objectClass=person)\n")); err != nil {
					done <- err
					return
				}
				lines := 0
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						done <- err
						return
					}
					if strings.HasPrefix(line, "OK") {
						break
					}
					lines++
				}
				if lines != 3 {
					done <- errLines(lines)
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errLines int

func (e errLines) Error() string { return "unexpected line count" }

var _ = core.ClassTop // anchor the import used in helpers

func TestServerMoveCommand(t *testing.T) {
	srv, c := startServer(t)
	c.expectOK("BEGIN")
	c.expectOK(
		"MOVE ou=databases,ou=attLabs,o=att -> o=att",
		"COMMIT",
	)
	c.expectOK("CHECK")
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	if srv.dir.ByDN("uid=laks,ou=databases,o=att") == nil {
		t.Errorf("move not applied")
	}
}

func TestServerJournalReplay(t *testing.T) {
	s := workload.WhitePagesSchema()
	journal := t.TempDir() + "/journal.ldif"

	// First server: journal a committed transaction, then close.
	srv1 := openServer(t, Options{Journal: journal})
	conn, err := net.Dial("tcp", srv1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := &client{t: t, conn: conn, r: bufio.NewReader(conn)}
	c.expectOK("BEGIN")
	c.expectOK(
		"ADD uid=journaled,ou=attLabs,o=att",
		"objectClass: person",
		"objectClass: top",
		"name: journaled person",
		"MOVE ou=databases,ou=attLabs,o=att -> o=att",
		"COMMIT",
	)
	// A rejected transaction must NOT reach the journal.
	c.send("BEGIN")
	if _, term := c.until(); term != "OK" {
		t.Fatalf("BEGIN failed: %s", term)
	}
	c.send("DELETE uid=journaled,ou=attLabs,o=att",
		"DELETE uid=armstrong,ou=attLabs,o=att",
		"DELETE uid=laks,ou=databases,o=att",
		"DELETE uid=suciu,ou=databases,o=att",
		"COMMIT")
	if _, term := c.until(); term != "ILLEGAL" {
		t.Fatalf("deleting every person should be ILLEGAL, got %s", term)
	}
	conn.Close()
	srv1.Close()

	// Second server: same snapshot + journal reproduces the state.
	srv2, err := New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.OpenJournal(journal); err != nil {
		t.Fatalf("replay: %v", err)
	}
	defer srv2.Close()
	if srv2.dir.ByDN("uid=journaled,ou=attLabs,o=att") == nil {
		t.Errorf("journaled add lost on replay")
	}
	if srv2.dir.ByDN("uid=laks,ou=databases,o=att") == nil {
		t.Errorf("journaled move lost on replay")
	}
	if got := srv2.dir.Len(); got != 7 {
		t.Errorf("replayed size = %d, want 7", got)
	}
	if r := core.NewChecker(s).Check(srv2.dir); !r.Legal() {
		t.Fatalf("replayed instance illegal:\n%s", r)
	}
}

func TestServerSnapshot(t *testing.T) {
	srv, c := startServer(t)
	c.expectOK("BEGIN")
	c.expectOK(
		"ADD uid=snap,ou=attLabs,o=att",
		"objectClass: person",
		"objectClass: top",
		"name: snapshot person",
		"COMMIT",
	)
	var buf strings.Builder
	w := bufio.NewWriter(&buf)
	if err := srv.Snapshot(w); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if !strings.Contains(buf.String(), "uid=snap,ou=attLabs,o=att") {
		t.Errorf("snapshot missing committed entry")
	}
}

func TestServerSearchWithSpacesInFilter(t *testing.T) {
	_, c := startServer(t)
	body := c.expectOK("SEARCH (name=laks lakshmanan)")
	if len(body) != 1 || !strings.Contains(body[0], "uid=laks") {
		t.Errorf("spaced filter result = %v", body)
	}
	body = c.expectOK("SEARCH (name=laks lakshmanan) base=ou=databases,ou=attLabs,o=att")
	if len(body) != 1 {
		t.Errorf("spaced filter with base = %v", body)
	}
	c.send("SEARCH name=noparens")
	if _, term := c.until(); !strings.HasPrefix(term, "ERR ") {
		t.Errorf("unparenthesized filter accepted: %q", term)
	}
}

// TestServerConcurrentCheckCommit is the mutation-under-check regression
// test: CHECK sessions (read-locked, running the parallel checker) race
// COMMIT sessions (write-locked mutation plus re-encode). Under -race it
// enforces the contract that the directory is read-only during checking —
// in particular that COMMIT leaves the interval encoding current, so no
// reader ever triggers the lazy re-encode under the read lock.
func TestServerConcurrentCheckCommit(t *testing.T) {
	s := workload.WhitePagesSchema()
	d := workload.Corpus(s, rand.New(rand.NewSource(3)), 2000)
	srv := openServer(t, Options{Schema: s, Name: "whitepages", Instance: d})
	srv.mu.Lock() // CHECK reads the checker under the read lock
	srv.checker.Concurrency = 4
	srv.mu.Unlock()
	addr := srv.Addr()

	// roundTrip sends the lines and reads one response, returning its
	// terminator (OK / ILLEGAL / ERR ...).
	roundTrip := func(conn net.Conn, r *bufio.Reader, lines ...string) (string, error) {
		for _, l := range lines {
			if _, err := conn.Write([]byte(l + "\n")); err != nil {
				return "", err
			}
		}
		rep, err := proto.ReadReply(r)
		return termLine(rep), err
	}

	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, 8)

	// Three reader sessions hammering CHECK (and a SEARCH for variety).
	for i := 0; i < 3; i++ {
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
			for k := 0; k < rounds; k++ {
				term, err := roundTrip(conn, r, "CHECK")
				if err != nil {
					errs <- err
					return
				}
				if term != "OK" {
					errs <- fmt.Errorf("CHECK on a server-maintained instance returned %q", term)
					return
				}
				if _, err := roundTrip(conn, r, "SEARCH (objectClass=orgUnit)"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	// Two writer sessions committing legal insert+delete pairs.
	for i := 0; i < 2; i++ {
		i := i
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
			for k := 0; k < rounds; k++ {
				unit := fmt.Sprintf("ou=race%d-%d,o=org0", i, k)
				if term, err := roundTrip(conn, r, "BEGIN"); err != nil || term != "OK" {
					errs <- fmt.Errorf("BEGIN: %q %v", term, err)
					return
				}
				term, err := roundTrip(conn, r,
					"ADD "+unit,
					"objectClass: orgUnit",
					"objectClass: orgGroup",
					"objectClass: top",
					"ADD uid=racep,"+unit,
					"objectClass: person",
					"objectClass: top",
					"name: race person",
					"COMMIT",
				)
				if err != nil || term != "OK" {
					errs <- fmt.Errorf("COMMIT add: %q %v", term, err)
					return
				}
				if term, err := roundTrip(conn, r, "BEGIN"); err != nil || term != "OK" {
					errs <- fmt.Errorf("BEGIN delete: %q %v", term, err)
					return
				}
				if term, err := roundTrip(conn, r, "DELETE uid=racep,"+unit, "DELETE "+unit, "COMMIT"); err != nil || term != "OK" {
					errs <- fmt.Errorf("COMMIT delete: %q %v", term, err)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The writers cleaned up after themselves; the instance must be back
	// to its initial size and legal.
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	if srv.dir.Len() != 2000 {
		t.Errorf("entries after racing commits: %d, want 2000", srv.dir.Len())
	}
	if r := core.NewChecker(s).Check(srv.dir); !r.Legal() {
		t.Errorf("instance illegal after racing commits:\n%s", r)
	}
}

// TestServerSpacedDNRoundTrip: DNs legitimately contain spaces
// (ou=Human Resources). SEARCH base= must take the whole remainder of
// the line as the DN, and MOVE's "->" separator must keep a spaced
// source and destination unambiguous — the regression here was
// tokenizing both commands on spaces.
func TestServerSpacedDNRoundTrip(t *testing.T) {
	srv, c := startServer(t)
	c.expectOK("BEGIN")
	c.expectOK(
		"ADD ou=human resources,ou=attLabs,o=att",
		"objectClass: orgUnit",
		"objectClass: orgGroup",
		"objectClass: top",
		"ADD uid=hr lead,ou=human resources,ou=attLabs,o=att",
		"objectClass: person",
		"objectClass: top",
		"name: pat hr",
		"COMMIT",
	)
	body := c.expectOK("SEARCH (objectClass=person) base=ou=human resources,ou=attLabs,o=att")
	if len(body) != 1 || body[0] != "uid=hr lead,ou=human resources,ou=attLabs,o=att" {
		t.Errorf("search under spaced base = %v", body)
	}
	c.expectOK("BEGIN")
	c.expectOK("MOVE ou=human resources,ou=attLabs,o=att -> o=att", "COMMIT")
	c.expectOK("CHECK")
	if body := c.expectOK("GET uid=hr lead,ou=human resources,o=att"); len(body) == 0 {
		t.Errorf("moved spaced-DN entry not readable at its new DN")
	}
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	if srv.dir.ByDN("uid=hr lead,ou=human resources,o=att") == nil {
		t.Errorf("spaced-DN subtree not moved")
	}
}

// TestServerSearchRejectsTrailingGarbage: anything after the filter
// that is not base=<dn> is an error, never silently dropped.
func TestServerSearchRejectsTrailingGarbage(t *testing.T) {
	_, c := startServer(t)
	c.send("SEARCH (objectClass=person) scope=sub")
	if _, term := c.until(); !strings.HasPrefix(term, "ERR ") {
		t.Errorf("unknown trailing token accepted: %q", term)
	}
	// MOVE without the "->" separator is likewise an error, not a guess
	// at which space splits the two DNs.
	c.expectOK("BEGIN")
	c.send("MOVE ou=databases,ou=attLabs,o=att o=att")
	if _, term := c.until(); !strings.HasPrefix(term, "ERR ") {
		t.Errorf("MOVE without '->' accepted: %q", term)
	}
}

// TestServerTxActiveGaugeOnAbruptDisconnect: a session that vanishes
// mid-transaction must not leak the TxActive gauge — the deferred abort
// in serve() is what keeps it honest.
func TestServerTxActiveGaugeOnAbruptDisconnect(t *testing.T) {
	srv, c := startServer(t)
	c.expectOK("BEGIN")
	if g := srv.metrics.TxActive.Load(); g != 1 {
		t.Fatalf("TxActive after BEGIN = %d, want 1", g)
	}
	c.conn.Close() // no ABORT, no QUIT: the connection just dies
	deadline := time.Now().Add(2 * time.Second)
	for srv.metrics.TxActive.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("TxActive stuck at %d after abrupt disconnect", srv.metrics.TxActive.Load())
		}
		time.Sleep(time.Millisecond)
	}
}
