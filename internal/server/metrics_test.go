package server

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"boundschema/internal/core"
	"boundschema/internal/proto"
	"boundschema/internal/repl"
	"boundschema/internal/workload"
)

// metricLine finds the first METRICS body line with the given prefix.
func metricLine(t *testing.T, body []string, prefix string) string {
	t.Helper()
	for _, l := range body {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	t.Fatalf("no %q line in METRICS body:\n%s", prefix, strings.Join(body, "\n"))
	return ""
}

// TestMetricsCountsCOUNT: every command of the protocol's table is
// metered under its own name, COUNT included, and never as UNKNOWN.
func TestMetricsCountsCOUNT(t *testing.T) {
	_, c := startServer(t)
	c.expectOK("COUNT person")
	body := c.expectOK("METRICS")
	if got := metricLine(t, body, "command COUNT:"); !strings.Contains(got, "count=1 errors=0") {
		t.Errorf("command COUNT = %q, want count=1 errors=0", got)
	}
	for _, l := range body {
		if strings.HasPrefix(l, "command UNKNOWN:") {
			t.Errorf("COUNT metered as unknown: %q", l)
		}
	}
}

// TestCommandTableMatchesDispatch: the session serves exactly the
// protocol's command table, each command in its own scope, so the
// METRICS buckets built from the table are the commands bsd answers.
func TestCommandTableMatchesDispatch(t *testing.T) {
	s := workload.WhitePagesSchema()
	srv, err := New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	// meter handles word and returns its metering label and terminator.
	meter := func(inTx bool, word string) (string, string) {
		se := &session{srv: srv, w: proto.NewWriter(io.Discard)}
		defer se.abort()
		if inTx {
			se.handle("BEGIN")
		}
		se.w.Term = ""
		se.handle(word)
		return se.cmd, se.w.Term
	}
	for _, c := range proto.Commands {
		if got, term := meter(c.Tx, c.Name); got != c.Name || (!c.Tx && term == "") {
			t.Errorf("%s in its scope metered as %q, answered %q", c.Name, got, term)
		}
		want := "" // a top-level word inside a transaction is a body line
		if c.Tx {
			want = "UNKNOWN"
		}
		if got, _ := meter(!c.Tx, c.Name); got != want {
			t.Errorf("%s out of its scope metered as %q, want %q", c.Name, got, want)
		}
	}
	if got, _ := meter(false, "SHARDMAP"); got != "UNKNOWN" {
		t.Errorf("the router's SHARDMAP metered by bsd as %q", got)
	}
}

// TestServerMetricsCommand drives a scripted session and asserts METRICS
// reports non-zero command counters, checker timings, transaction
// outcomes, and violation kinds — the acceptance scenario for the
// observability surface.
func TestServerMetricsCommand(t *testing.T) {
	_, c := startServer(t)

	c.expectOK("SEARCH (objectClass=person)")
	c.expectOK("SEARCH (objectClass=orgUnit)")
	c.expectOK("GET ou=attLabs,o=att")

	// One legal commit.
	c.expectOK("BEGIN")
	c.expectOK(
		"ADD uid=metr,ou=attLabs,o=att",
		"objectClass: person",
		"objectClass: top",
		"name: metr",
		"COMMIT",
	)

	// One illegal commit: an empty orgUnit breaches its lower bounds, so
	// COMMIT replies ILLEGAL with violations.
	c.expectOK("BEGIN")
	c.send(
		"ADD ou=empty,ou=attLabs,o=att",
		"objectClass: orgUnit",
		"objectClass: orgGroup",
		"objectClass: top",
		"COMMIT",
	)
	if _, term := c.until(); term != "ILLEGAL" {
		t.Fatalf("empty-orgUnit commit replied %q, want ILLEGAL", term)
	}

	c.expectOK("CHECK")
	c.send("BOGUS")
	if _, term := c.until(); !strings.HasPrefix(term, "ERR ") {
		t.Fatalf("unknown command replied %q", term)
	}

	body := c.expectOK("METRICS")

	// Command counters: exactly what the script sent.
	for line, frag := range map[string]string{
		"command SEARCH:":  "count=2 errors=0",
		"command GET:":     "count=1 errors=0",
		"command BEGIN:":   "count=2",
		"command COMMIT:":  "count=2",
		"command CHECK:":   "count=1",
		"command UNKNOWN:": "count=1 errors=1",
	} {
		if got := metricLine(t, body, line); !strings.Contains(got, frag) {
			t.Errorf("%s = %q, want containing %q", line, got, frag)
		}
	}
	// Checker timings: the two COMMITs and the CHECK each ran the checker
	// (the startup legality check is deliberately uncounted).
	seq := metricLine(t, body, "checker sequential:")
	par := metricLine(t, body, "checker parallel:")
	if strings.Contains(seq, "count=0") && strings.Contains(par, "count=0") {
		t.Errorf("no checker timings recorded:\n%s\n%s", seq, par)
	}
	tx := metricLine(t, body, "transactions:")
	for _, frag := range []string{"committed=1", "illegal=1", "active=0"} {
		if !strings.Contains(tx, frag) {
			t.Errorf("transactions line %q missing %q", tx, frag)
		}
	}
	// The illegal DELETE surfaced at least one violation kind.
	var sawViolation bool
	for _, l := range body {
		if strings.HasPrefix(l, "violations ") {
			sawViolation = true
		}
	}
	if !sawViolation {
		t.Errorf("no violation counters after an ILLEGAL commit:\n%s",
			strings.Join(body, "\n"))
	}
	metricLine(t, body, "uptime_ms:")
	metricLine(t, body, "connections:")
	if got := metricLine(t, body, "journal:"); got != "journal: off" {
		t.Errorf("journal line = %q on a journal-less server", got)
	}
}

// TestMetricsSnapshotJSON: the expvar shape must marshal and carry the
// same counters the METRICS command reports.
func TestMetricsSnapshotJSON(t *testing.T) {
	srv, c := startServer(t)
	c.expectOK("SEARCH (objectClass=person)")
	c.expectOK("CHECK")

	raw, err := json.Marshal(srv.MetricsSnapshot())
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	cmds, ok := snap["commands"].(map[string]any)
	if !ok {
		t.Fatalf("snapshot has no commands map: %s", raw)
	}
	search, ok := cmds["SEARCH"].(map[string]any)
	if !ok || search["count"].(float64) != 1 {
		t.Errorf("snapshot SEARCH stats = %v", cmds["SEARCH"])
	}
	if _, ok := snap["checker"]; !ok {
		t.Errorf("snapshot missing checker section: %s", raw)
	}
	if _, ok := snap["journal"]; ok {
		t.Errorf("journal section present on a journal-less server")
	}
}

// TestHistogramQuantile: observations land in power-of-two buckets and
// the quantile upper bounds are ordered and honest.
func TestHistogramQuantile(t *testing.T) {
	var h histogram
	if h.quantile(0.5) != 0 || h.avgUS() != 0 {
		t.Fatalf("empty histogram not zero")
	}
	for _, us := range []int64{0, 3, 3, 3, 100, 900} {
		h.observe(time.Duration(us) * time.Microsecond)
	}
	if n := h.count.Load(); n != 6 {
		t.Fatalf("count = %d", n)
	}
	if mx := h.maxUS.Load(); mx != 900 {
		t.Fatalf("max = %d", mx)
	}
	p50 := h.quantile(0.50)
	p99 := h.quantile(0.99)
	if p50 < 3 || p50 > 4 {
		t.Errorf("p50 = %d, want upper bound of the [2,4) bucket", p50)
	}
	if p99 != 900 {
		t.Errorf("p99 = %d, want clamped to max 900", p99)
	}
	if p50 > p99 {
		t.Errorf("quantiles not ordered: p50=%d p99=%d", p50, p99)
	}
	if avg := h.avgUS(); avg != (0+3+3+3+100+900)/6 {
		t.Errorf("avg = %d", avg)
	}
}

// TestMetricsLineOrder pins the METRICS body ordering — it is part of
// the observability surface, and scraping scripts rely on it. Every
// optional section is switched on so the golden sequence covers the
// whole surface, including the replication lines.
func TestMetricsLineOrder(t *testing.T) {
	m := newMetrics()
	m.noteBatch(3)
	m.noteRecovery(&RecoveryReport{RecordsScanned: 2, Legal: true, Clean: true})
	m.observeCommand("SEARCH", time.Millisecond, false)
	m.observeCommand("COMMIT", time.Millisecond, false)
	m.SearchIndexed.Add(2)
	m.SearchScanned.Add(1)
	m.violations[0].Add(1)

	m.FencingEvents.Add(1)

	hub := repl.HubStatus{Mode: repl.SemiSync, Replicas: 2, LastShipped: 9, AckedSeq: 9, Epoch: 3}
	rs := replStatus{role: "read-only degraded", epoch: 3, hub: &hub, replica: true,
		primarySeq: 9, localSeq: 8, applied: 4}
	got := m.lines(true, "stuck", rs)

	want := []string{
		"uptime_ms",
		"connections",
		"sessions",
		"transactions",
		"search",
		"journal",
		"group-commit",
		"recovery",
		"read_only",
		"role",
		"epoch",
		"fencing",
		"replication",
		"replica",
		"checker sequential",
		"checker parallel",
		"command COMMIT",
		"command SEARCH",
		"violations " + core.ViolationKind(0).String(),
	}
	if len(got) != len(want) {
		t.Fatalf("METRICS rendered %d lines, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i, l := range got {
		key, _, ok := strings.Cut(l, ":")
		if !ok || key != want[i] {
			t.Errorf("line %d = %q, want key %q", i, l, want[i])
		}
	}

	// The replication lines carry exact, scrapable key=value content.
	if l := got[4]; l != "search: indexed=2 scanned=1" {
		t.Errorf("search line = %q", l)
	}
	if l := got[9]; l != "role: read-only degraded" {
		t.Errorf("role line = %q", l)
	}
	if l := got[10]; l != "epoch: 3" {
		t.Errorf("epoch line = %q", l)
	}
	if l := got[11]; l != "fencing: events=1 epoch_rejects=0" {
		t.Errorf("fencing line = %q", l)
	}
	if l := got[12]; l != "replication: mode=semisync replicas=2 last_shipped=9 acked_seq=9 semisync_degraded=0 epoch=3" {
		t.Errorf("replication line = %q", l)
	}
	if l := got[13]; l != "replica: primary_seq=9 applied_seq=8 lag=1 applied=4" {
		t.Errorf("replica line = %q", l)
	}

	// A plain journal-less primary still states its role, in the same slot
	// relative to its neighbours.
	plain := newMetrics().lines(false, "", replStatus{role: "primary"})
	idx := -1
	for i, l := range plain {
		if l == "role: primary" {
			idx = i
		}
	}
	if idx == -1 {
		t.Fatalf("no role line on a plain server:\n%s", strings.Join(plain, "\n"))
	}
	if !strings.HasPrefix(plain[idx-1], "journal:") || !strings.HasPrefix(plain[idx+1], "epoch:") {
		t.Errorf("role line neighbours = %q / %q", plain[idx-1], plain[idx+1])
	}
}

// BenchmarkObserveCommand measures the metrics tax on the per-command
// hot path (EXPERIMENTS.md, "Metrics overhead").
func BenchmarkObserveCommand(b *testing.B) {
	m := newMetrics()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.observeCommand("SEARCH", 37*time.Microsecond, false)
		}
	})
}
