package server

import (
	"strings"
	"testing"

	"boundschema/internal/proto"
	"boundschema/internal/repl"
	"boundschema/internal/vfs"
)

// The ERR grammar: every error path replies with exactly one line of the
// form "ERR <message>" — no payload lines before it, no embedded
// newlines (the reply funnel folds them to " | "), and a non-empty
// message — and, unless the error is session-fatal, the reply stream
// stays parseable: the next command gets a normal reply. The protocol's
// reply framing (internal/proto.ReadReply) depends on exactly this
// contract. The malformed request lines themselves are one table,
// TestErrGrammarDifferential in internal/shard, which sends each to bsd
// and to a router in front of it; the cases here are bsd's own.

// expectErr reads one reply and asserts the ERR grammar, returning the
// message after "ERR ".
func expectErr(t *testing.T, c *client, wantSub string) string {
	t.Helper()
	body, term := c.until()
	if len(body) != 0 {
		t.Errorf("ERR reply carried %d payload lines before the terminator: %v", len(body), body)
	}
	msg, ok := strings.CutPrefix(term, "ERR ")
	if !ok {
		t.Fatalf("reply %q is not an ERR terminator", term)
	}
	if msg == "" {
		t.Error("ERR with an empty message")
	}
	if strings.ContainsAny(msg, "\n\r") {
		t.Errorf("ERR message holds a raw newline: %q", msg)
	}
	if wantSub != "" && !strings.Contains(msg, wantSub) {
		t.Errorf("ERR message %q does not mention %q", msg, wantSub)
	}
	return msg
}

// TestErrGrammarCommandPaths drives bsd's refusals of well-formed
// requests (QUERY is not routable, so its grammar is bsd's alone) and
// checks the grammar plus stream recovery.
func TestErrGrammarCommandPaths(t *testing.T) {
	cases := []struct {
		name string
		send string // the line whose single reply must be a grammatical ERR
		want string
	}{
		{"bad query", "QUERY (frob x)", ""},
		{"get missing entry", "GET uid=ghost,o=att", "no entry"},
		{"search missing base", "SEARCH (objectClass=person) base=o=ghost", "not found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c := startServer(t)
			c.send(tc.send)
			expectErr(t, c, tc.want)
			// The session stays alive: the next command parses normally.
			c.expectOK("STAT")
		})
	}
}

// TestErrGrammarRedirect: a write on a replica is refused with a single
// parseable redirect line that names the primary.
func TestErrGrammarRedirect(t *testing.T) {
	primary, replAddr := startPrimary(t, repl.Async)
	_ = primary
	r := startReplica(t, vfs.NewFault(), replAddr)
	addr, err := r.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := dialClient(t, addr)
	c.send("BEGIN")
	msg := expectErr(t, c, "redirect primary=")
	if !strings.Contains(msg, replAddr) {
		t.Errorf("redirect %q does not name the primary %q", msg, replAddr)
	}
	c.expectOK("STAT") // replica still serves reads after refusing the write
	c.expectOK("SEARCH (objectClass=person)")
}

// TestErrGrammarNotDurableAndReadOnly: the two journal-failure refusals
// keep the single-line grammar and leave reads working.
func TestErrGrammarNotDurableAndReadOnly(t *testing.T) {
	t.Run("not durable", func(t *testing.T) {
		srv, c, _ := startJournaledServer(t, 0)
		injectJournal(srv, &flakyJournal{failWrites: true})
		c.expectOK("BEGIN")
		c.send(addPersonLines("doomed")...)
		expectErr(t, c, "not durable")
		c.expectOK("CHECK") // rolled back to a legal instance, session alive
	})
	t.Run("read-only", func(t *testing.T) {
		srv, c, _ := startJournaledServer(t, 0)
		injectJournal(srv, &flakyJournal{failWrites: true, failTruncate: true})
		c.expectOK("BEGIN")
		c.send(addPersonLines("doomed")...)
		expectErr(t, c, "") // the failed commit itself
		c.expectOK("BEGIN") // degradation refuses the write at BEGIN or COMMIT
		c.send(addPersonLines("after")...)
		expectErr(t, c, "read-only")
		c.expectOK("SEARCH (objectClass=person)") // reads survive degradation
	})
}

// TestErrGrammarLineTooLong: the one session-fatal refusal still emits a
// single grammatical ERR line before the close.
func TestErrGrammarLineTooLong(t *testing.T) {
	_, addr := startServerWithLimits(t, Limits{DrainTimeout: 200 * 1e6})
	c := dialClient(t, addr)
	if _, err := c.conn.Write([]byte(strings.Repeat("A", proto.MaxLineBytes+4096) + "\n")); err != nil {
		t.Fatal(err)
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("no reply: %v", err)
	}
	line = strings.TrimRight(line, "\n")
	if !strings.HasPrefix(line, "ERR ") || !strings.Contains(line, "line too long") {
		t.Fatalf("oversized line reply = %q", line)
	}
}
