package shard

import (
	"bufio"
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"boundschema/internal/proto"
	"boundschema/internal/server"
	"boundschema/internal/workload"
)

// The ERR grammar, pinned on the router and on bsd alike: every refusal
// is exactly one "ERR <message>" line — no payload lines, no embedded
// newlines, non-empty message — and the session stays usable
// afterwards. internal/proto's ReadReply frames replies on exactly this
// contract, and the load harness's error taxonomy (wrong_shard,
// cross_shard, shard_down) parses the messages, so the wording is
// contract, not decoration.

// expectRouterErr reads one reply and asserts the grammar.
func expectRouterErr(t *testing.T, c *proto.Conn, wantSub string) string {
	t.Helper()
	r, err := c.Read()
	if err != nil {
		t.Fatalf("read ERR reply: %v", err)
	}
	if r.Term != "ERR" {
		t.Fatalf("want ERR, got %s %v", r.Term, r.Lines)
	}
	if len(r.Lines) != 0 {
		t.Errorf("ERR reply carried %d payload lines: %v", len(r.Lines), r.Lines)
	}
	if r.Err == "" {
		t.Error("ERR with an empty message")
	}
	if strings.ContainsAny(r.Err, "\n\r") {
		t.Errorf("ERR message holds a raw newline: %q", r.Err)
	}
	if wantSub != "" && !strings.Contains(r.Err, wantSub) {
		t.Errorf("ERR message %q does not mention %q", r.Err, wantSub)
	}
	return r.Err
}

// assertUsable proves the session survived the error: SHARDMAP always
// answers from the router's own state.
func assertUsable(t *testing.T, c *proto.Conn) {
	t.Helper()
	r, err := c.Do("SHARDMAP")
	if err != nil || !r.OK() {
		t.Fatalf("session unusable after error: %v / %s %s", err, r.Term, r.Err)
	}
}

// startRoutedServer boots one bsd over the Figure 1 instance and a
// router whose map sends everything to it.
func startRoutedServer(t *testing.T) (bsdAddr, routerAddr string) {
	t.Helper()
	s := workload.WhitePagesSchema()
	srv, err := server.Open(server.Options{Schema: s, Name: "whitepages", Instance: workload.WhitePagesInstance(s), Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	bsdAddr = srv.Addr()
	rt := NewRouter(mustMap(t, nil, &Shard{Name: "s0", Addr: bsdAddr}))
	if routerAddr, err = rt.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return bsdAddr, routerAddr
}

// TestErrGrammarDifferential is the one table of malformed lines. Each
// goes to a bsd and to a router in front of it; both must answer with
// the same single ERR line carrying the pinned wording, and both
// sessions must go on answering byte-identically, an erring transaction
// dropped on both.
func TestErrGrammarDifferential(t *testing.T) {
	bsdAddr, routerAddr := startRoutedServer(t)
	// Transaction bodies at proto.MaxTxOps operations and at
	// proto.MaxTxBytes bytes: the next line is refused.
	var atOps []string
	for len(atOps) < proto.MaxTxOps {
		atOps = append(atOps, "DELETE uid=x"+strconv.Itoa(len(atOps))+",ou=attLabs,o=att")
	}
	atBytes := []string{"ADD uid=big,ou=attLabs,o=att"}
	for n := proto.MaxTxBytes - len(atBytes[0]); n > 0; n -= proto.MaxLineBytes / 2 {
		atBytes = append(atBytes, "d:"+strings.Repeat("x", min(n, proto.MaxLineBytes/2)-2))
	}
	const txTooBig = "transaction too complex: more than 10000 operations or 4194304 bytes"
	for _, tc := range []struct {
		name string
		inTx bool     // sent after BEGIN
		body []string // transaction-body lines sent first, answered by nothing
		line string
		want string // substring of the ERR message
	}{
		{"unknown command", false, nil, "FROB o=att", `unknown command "FROB"`},
		{"commit outside txn", false, nil, "COMMIT", `unknown command "COMMIT"`},
		{"abort outside txn", false, nil, "ABORT", `unknown command "ABORT"`},
		{"unbalanced filter", false, nil, "SEARCH (bad", "unbalanced filter"},
		{"unparenthesized filter", false, nil, "SEARCH name=noparens", "expected a parenthesized filter"},
		{"bad filter syntax", false, nil, "SEARCH (attr>5)", "filter: at offset"},
		{"search trailing junk", false, nil, "SEARCH (objectClass=person) bogus", `unexpected "bogus" after filter`},
		{"search limit not a number", false, nil, "SEARCH (objectClass=person) limit=ten", `malformed "limit=ten"`},
		{"search limit empty", false, nil, "SEARCH (objectClass=person) limit=", `malformed "limit="`},
		{"search limit negative", false, nil, "SEARCH (objectClass=person) limit=-1", `malformed "limit=-1"`},
		{"search limit with junk base", false, nil, "SEARCH (objectClass=person) bogus limit=2", `unexpected "bogus" after filter`},
		{"search filter too deep", false, nil, "SEARCH " + strings.Repeat("(!", proto.MaxDepth+1) + "(a=b)" + strings.Repeat(")", proto.MaxDepth+1),
			"filter: too complex: more than 32 deep or 256 nodes"},
		{"search filter too wide", false, nil, "SEARCH (|" + strings.Repeat("(a=b)", proto.MaxNodes) + ")",
			"filter: too complex: more than 32 deep or 256 nodes"},
		{"count missing class", false, nil, "COUNT", "COUNT needs a class"},
		{"count trailing junk", false, nil, "COUNT person bogus", `unexpected "bogus" after class`},
		{"count child without base", false, nil, "COUNT person child", "COUNT child needs a base"},
		{"add without dn", true, nil, "ADD", "ADD needs a DN"},
		{"move without arrow", true, nil, "MOVE uid=x,o=att somewhere", `MOVE needs "<dn> -> <dest>"`},
		{"move with a word for the arrow", true, nil, "MOVE uid=x,o=att to o=att", `MOVE needs "<dn> -> <dest>"`},
		{"stray attribute line", true, nil, "name: stray", `unexpected "name: stray" inside transaction`},
		{"malformed attribute line", true, []string{"ADD uid=x,ou=attLabs,o=att"}, "not-an-attribute", `malformed attribute line "not-an-attribute"`},
		{"transaction past the op cap", true, atOps, "DELETE uid=past,ou=attLabs,o=att", txTooBig},
		{"transaction past the byte cap", true, atBytes, "DELETE uid=past,ou=attLabs,o=att", txTooBig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var errs [2]string
			conns := [2]*proto.Conn{dialTest(t, bsdAddr), dialTest(t, routerAddr)}
			for i, c := range conns {
				if tc.inTx {
					if r, err := c.Do("BEGIN"); err != nil || !r.OK() {
						t.Fatalf("BEGIN: %v / %s %s", err, r.Term, r.Err)
					}
				}
				if err := c.Send(append(tc.body, tc.line)...); err != nil {
					t.Fatal(err)
				}
				errs[i] = expectRouterErr(t, c, tc.want)
			}
			if errs[0] != errs[1] {
				t.Fatalf("%q:\n  bsd:    ERR %s\n  router: ERR %s", tc.line, errs[0], errs[1])
			}
			// No transaction survives the refusal: COMMIT is an unknown
			// command on both sides, and the next read answers alike.
			for _, c := range conns {
				if err := c.Send("COMMIT"); err != nil {
					t.Fatal(err)
				}
				expectRouterErr(t, c, `unknown command "COMMIT"`)
			}
			r0, err0 := conns[0].Do("COUNT person")
			r1, err1 := conns[1].Do("COUNT person")
			if err0 != nil || err1 != nil || !r0.OK() {
				t.Fatalf("COUNT after the refusal: %v / %v / %s %s", err0, err1, r0.Term, r0.Err)
			}
			if !reflect.DeepEqual(r0, r1) {
				t.Fatalf("COUNT after the refusal: bsd %+v, router %+v", r0, r1)
			}
		})
	}
}

// TestRouterRefusesLongLine: a line over proto.MaxLineBytes draws bsd's
// exact refusal from the router before the connection closes.
func TestRouterRefusesLongLine(t *testing.T) {
	bsdAddr, routerAddr := startRoutedServer(t)
	var got [2]string
	for i, addr := range []string{bsdAddr, routerAddr} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(strings.Repeat("A", proto.MaxLineBytes+4096) + "\n")); err != nil {
			t.Fatalf("write: %v", err)
		}
		if got[i], err = bufio.NewReader(conn).ReadString('\n'); err != nil {
			t.Fatalf("%s: no reply to an oversized line: %v", addr, err)
		}
	}
	if want := "ERR line too long (max 1048576 bytes)\n"; got[0] != want || got[1] != want {
		t.Fatalf("oversized line: bsd %q, router %q, want %q", got[0], got[1], want)
	}
}

// TestRouterErrGrammar covers the router's own refusals: commands it
// does not route and transaction lines that would span shards.
func TestRouterErrGrammar(t *testing.T) {
	c := startSharded(t, diffScenarios[0], 220, 2, 17)
	carved0 := c.m.Shards[0]
	carved1 := c.m.Shards[1]
	spine := c.m.Spine()[0]

	inCarved := func(sh *Shard) string { return "uid=g," + sh.Roots[0] }

	cases := []struct {
		name string
		send []string // each line sent; exactly one ERR reply expected in total
		want string
	}{
		{"query not routable", []string{"QUERY person"}, "not routable"},
		{"promote not routable", []string{"PROMOTE 3"}, "not routable"},
		{"spine delete", []string{"BEGIN", "DELETE " + spine}, "cross-shard delete"},
		{"spine move", []string{"BEGIN", "MOVE " + spine + " -> o=org0"}, "cross-shard move"},
		{"shard root move", []string{"BEGIN", "MOVE " + carved0.Roots[0] + " -> " + carved1.Roots[0]}, "re-carve"},
		{"cross-shard move", []string{"BEGIN", "MOVE " + inCarved(carved0) + " -> " + carved1.Roots[0]}, "cross-shard move"},
		{"cross-shard transaction", []string{"BEGIN", "ADD " + inCarved(carved0), "ADD " + inCarved(carved1)}, "cross-shard transaction"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn := dialTest(t, c.rtAddr)
			for i, line := range tc.send {
				if err := conn.Send(line); err != nil {
					t.Fatalf("send %q: %v", line, err)
				}
				if line == "BEGIN" && i == 0 {
					if r, err := conn.Read(); err != nil || !r.OK() {
						t.Fatalf("BEGIN: %v / %s", err, r.Term)
					}
				}
			}
			expectRouterErr(t, conn, tc.want)
			assertUsable(t, conn)
			// An erring transaction is dropped: COMMIT outside one is an
			// unknown command, exactly as on a shard.
			if tc.send[0] == "BEGIN" {
				if err := conn.Send("COMMIT"); err != nil {
					t.Fatal(err)
				}
				expectRouterErr(t, conn, "unknown command")
				assertUsable(t, conn)
			}
		})
	}
}

// TestRouterErrGrammarUnroutable drives the no-default-shard map: DNs
// outside every carved root have no owner and each command path says so
// with one parseable line.
func TestRouterErrGrammarUnroutable(t *testing.T) {
	// One carved shard, no default: reuse a running shard server from a
	// full cluster but front it with a root-only map.
	c := startSharded(t, diffScenarios[0], 220, 2, 19)
	carved := c.m.Shards[0]
	m := mustMap(t, []*Shard{{Name: carved.Name, Addr: carved.Addr, Roots: carved.Roots}}, nil)
	rt := NewRouter(m)
	addr, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("router listen: %v", err)
	}
	t.Cleanup(func() { rt.Close() })
	conn := dialTest(t, addr)

	outside := "uid=nobody,ou=elsewhere,o=org0"
	for _, tc := range []struct {
		name string
		send []string
	}{
		{"get", []string{"GET " + outside}},
		{"search base", []string{"SEARCH (objectClass=person) base=" + outside}},
		{"count base", []string{"COUNT person base=" + outside}},
		{"tx add", []string{"BEGIN", "ADD " + outside}},
		{"tx move", []string{"BEGIN", "MOVE " + outside + " -> o=org0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, line := range tc.send {
				if err := conn.Send(line); err != nil {
					t.Fatalf("send %q: %v", line, err)
				}
				if line == "BEGIN" && i == 0 {
					if r, err := conn.Read(); err != nil || !r.OK() {
						t.Fatalf("BEGIN: %v / %s", err, r.Term)
					}
				}
			}
			msg := expectRouterErr(t, conn, "unroutable dn")
			if !strings.Contains(msg, "no default shard") {
				t.Errorf("unroutable message should explain the missing default: %q", msg)
			}
			assertUsable(t, conn)
		})
	}

	// Routable traffic still flows on the same session: the carved
	// shard's own subtree answers.
	r, err := conn.Do("SEARCH (objectClass=person) base=" + carved.Roots[0])
	if err != nil || !r.OK() {
		t.Fatalf("carved-subtree search after unroutable errors: %v / %s %s", err, r.Term, r.Err)
	}
}

// TestRouterErrGrammarShardDown pins the shard_down taxonomy: a dead
// shard yields one ERR naming the shard and the word "unavailable", and
// commands owned by live shards keep working on the same session.
func TestRouterErrGrammarShardDown(t *testing.T) {
	c := startSharded(t, diffScenarios[0], 220, 2, 23)
	down := c.m.Shards[0]
	c.crashShard(down.Name)

	conn := dialTest(t, c.rtAddr)
	// Drain any pooled connection still relaying the graceful shutdown.
	for attempt := 0; attempt < 3; attempt++ {
		r, err := conn.Do("GET uid=g," + down.Roots[0])
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		if r.Term != "ERR" {
			t.Fatalf("dead shard GET: want ERR, got %s", r.Term)
		}
		if strings.Contains(r.Err, "unavailable") {
			break
		}
	}
	if err := conn.Send("GET uid=g," + down.Roots[0]); err != nil {
		t.Fatal(err)
	}
	msg := expectRouterErr(t, conn, "unavailable")
	if !strings.Contains(msg, down.Name) {
		t.Errorf("shard-down message should name the shard: %q", msg)
	}
	assertUsable(t, conn)

	// A transaction bound to the dead shard fails at COMMIT with the
	// same taxonomy...
	if r, err := conn.Do("BEGIN"); err != nil || !r.OK() {
		t.Fatalf("BEGIN: %v", err)
	}
	if err := conn.Send("DELETE uid=g,"+down.Roots[0], "COMMIT"); err != nil {
		t.Fatal(err)
	}
	expectRouterErr(t, conn, "unavailable")
	assertUsable(t, conn)

	// ...while the surviving shard's subtree still serves reads and
	// writes through the router.
	alive := c.m.Shards[1]
	if r, err := conn.Do("SEARCH (objectClass=person) base=" + alive.Roots[0]); err != nil || !r.OK() {
		t.Fatalf("surviving shard search: %v / %s %s", err, r.Term, r.Err)
	}
}
