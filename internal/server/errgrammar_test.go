package server

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"boundschema/internal/proto"
	"boundschema/internal/vfs"
)

// The protocol's limits (internal/proto), pinned: a request line of at
// most maxLineBytes, a transaction of at most maxTxOps operations and
// maxTxBytes bytes of operation and body lines.
const (
	maxLineBytes = 1 << 20
	maxTxOps     = 10000
	maxTxBytes   = 4 << 20
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
	primary, replAddr := startPrimary(t, Options{})
	_ = primary
	r := startReplica(t, vfs.NewFault(), replAddr)
	c := dialClient(t, r.Addr())
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
	if _, err := c.conn.Write([]byte(strings.Repeat("A", maxLineBytes+4096) + "\n")); err != nil {
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

// TestRequestBounds: proto.MaxDepth and proto.MaxNodes bound what one
// SEARCH or QUERY line may ask for. At the cap a deep filter, a wide
// filter and a deep query evaluate to exactly what their one-atom core
// selects; one past the cap is refused with one proto.TooComplex line
// before any plan runs, and so is a 1 MiB line of "(!" nesting, which
// fits maxLineBytes.
func TestRequestBounds(t *testing.T) {
	srv, c := startServer(t)
	const person = "(objectClass=person)"
	persons := c.expectOK("SEARCH " + person)
	if len(persons) == 0 {
		t.Fatal("no person to select")
	}
	nest := func(open, core string, levels int) string {
		return strings.Repeat(open, levels) + core + strings.Repeat(")", levels)
	}
	deepFilter := func(depth int) string { return "SEARCH " + nest("(&", person, depth-1) }
	wideFilter := func(nodes int) string { return "SEARCH (|" + strings.Repeat(person, nodes-1) + ")" }
	// (select F) is two deep; each minus level adds one to the depth and
	// three nodes (the minus, a select and its filter).
	deepQuery := func(depth int) string {
		q := "(select " + person + ")"
		for d := 2; d < depth; d++ {
			q = "(minus " + q + " (select (objectClass=nothing)))"
		}
		return "QUERY " + q
	}
	probeA := "SEARCH " + nest("(!", "(a=b)", (maxLineBytes-64)/3)
	for _, tc := range []struct{ name, at, past string }{
		{"deep filter", deepFilter(proto.MaxDepth), deepFilter(proto.MaxDepth + 1)},
		{"wide filter", wideFilter(proto.MaxNodes), wideFilter(proto.MaxNodes + 1)},
		{"deep query", deepQuery(proto.MaxDepth), deepQuery(proto.MaxDepth + 1)},
		{"probe A", "", probeA},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.at != "" {
				if got := c.expectOK(tc.at); !slices.Equal(got, persons) {
					t.Errorf("at the cap: %v, want %v", got, persons)
				}
			}
			planned := srv.metrics.SearchIndexed.Load() + srv.metrics.SearchScanned.Load()
			c.send(tc.past)
			expectErr(t, c, proto.TooComplex)
			if n := srv.metrics.SearchIndexed.Load() + srv.metrics.SearchScanned.Load(); n != planned {
				t.Errorf("a refused request was planned (%d plans, was %d)", n, planned)
			}
		})
	}
}

// TestTxBounds: a body at maxTxOps operations or maxTxBytes
// bytes is taken whole (ABORT answers alone); the line past the cap is
// refused with one proto.TooComplex line that drops the transaction, and
// a legal transaction then commits on the same session.
func TestTxBounds(t *testing.T) {
	_, c := startServer(t)
	var ops []string
	for len(ops) < maxTxOps {
		ops = append(ops, "DELETE uid=x"+strconv.Itoa(len(ops))+",o=att")
	}
	for name, body := range map[string][]string{"ops": ops, "bytes": atTxByteCap("uid=big,ou=attLabs,o=att")} {
		c.expectOK("BEGIN")
		c.send(body...)
		c.expectOK("ABORT")
		c.expectOK("BEGIN")
		c.send(append(body, "DELETE uid=past,o=att", "COMMIT", "BEGIN")...)
		expectErr(t, c, "transaction "+proto.TooComplex)
		expectErr(t, c, `unknown command "COMMIT"`)
		if _, term := c.until(); term != "OK" {
			t.Fatalf("%s: BEGIN after the refusal: %s", name, term)
		}
		c.expectOK(addPersonLines("capped-" + name)...)
	}
}

// atTxByteCap is an ADD whose body lines hold exactly maxTxBytes
// bytes, each line within maxLineBytes.
func atTxByteCap(dn string) []string {
	body := []string{"ADD " + dn}
	for n := maxTxBytes - len(body[0]); n > 0; n -= maxLineBytes / 2 {
		body = append(body, "d:"+strings.Repeat("x", min(n, maxLineBytes/2)-2))
	}
	return body
}
