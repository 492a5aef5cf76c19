package server

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
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
// same counters the METRICS command reports, a command's under
// "command", the journal's state as "off" when there is none.
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
	cmds, ok := snap["command"].(map[string]any)
	if !ok {
		t.Fatalf("snapshot has no command map: %s", raw)
	}
	search, ok := cmds["SEARCH"].(map[string]any)
	if !ok || search["count"].(float64) != 1 {
		t.Errorf("snapshot SEARCH stats = %v", cmds["SEARCH"])
	}
	if _, ok := snap["checker"]; !ok {
		t.Errorf("snapshot missing checker section: %s", raw)
	}
	if j := snap["journal"]; j != "off" {
		t.Errorf("journal = %v on a journal-less server, want \"off\"", j)
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

// metricsLines renders m's METRICS body for the given server state.
func metricsLines(m *metrics, journalOn bool, readOnly string, rs replStatus) []string {
	return lines(m.groups(journalOn, readOnly, rs))
}

// TestMetricsLineOrder pins the METRICS body, line by line and byte for
// byte (only uptime_ms's value moves) — it is part of the observability
// surface, and scraping scripts rely on it. Every optional section is
// switched on so the golden text covers the whole surface, including the
// replication lines.
func TestMetricsLineOrder(t *testing.T) {
	m := newMetrics()
	m.ConnsActive.Add(1)
	m.ConnsTotal.Add(2)
	m.IdleTimeouts.Add(1)
	m.TxCommitted.Add(1)
	m.noteBatch(3)
	m.noteRecovery(&RecoveryReport{RecordsScanned: 2, Legal: true, Clean: true})
	m.observeCommand("SEARCH", time.Millisecond, false)
	m.observeCommand("COMMIT", time.Millisecond, false)
	m.noteCheckTiming(core.CheckTiming{Workers: 1, Duration: 3 * time.Millisecond})
	m.noteCheckTiming(core.CheckTiming{Workers: 2, Duration: 5 * time.Millisecond})
	m.SearchIndexed.Add(2)
	m.SearchScanned.Add(1)
	m.violations[0].Add(1)

	m.FencingEvents.Add(1)

	hub := repl.HubStatus{Mode: repl.SemiSync, Replicas: 2, LastShipped: 9, AckedSeq: 9, Epoch: 3}
	rs := replStatus{role: "read-only degraded", epoch: 3, hub: &hub, replica: true,
		primarySeq: 9, localSeq: 8, applied: 4}
	got := metricsLines(m, true, "stuck", rs)

	want := []string{
		"uptime_ms: ",
		"connections: active=1 total=2 throttled=0",
		"sessions: idle_timeouts=1 lines_too_long=0 scan_errors=0 accept_retries=0",
		"transactions: active=0 committed=1 illegal=0 errors=0",
		"search: indexed=2 scanned=1",
		"journal: bytes=0 rotations=0 errors=0",
		"group-commit: fsyncs=1 commits=3 commits_per_fsync=3.00 fsyncs_per_commit=0.33 max_batch=3 p99_batch=3",
		"recovery: journal_records_scanned=2 journal_records_replayed=0 journal_records_truncated=0 journal_records_quarantined=0 recovery_legality_us=0 recovery_clean=1",
		"read_only: stuck",
		"role: read-only degraded",
		"epoch: 3",
		"fencing: events=1 epoch_rejects=0",
		"replication: mode=semisync replicas=2 last_shipped=9 acked_seq=9 semisync_degraded=0 epoch=3",
		"replica: primary_seq=9 applied_seq=8 lag=1 applied=4",
		"checker sequential: count=1 total_us=3000 avg_us=3000",
		"checker parallel: count=1 workers=2 total_us=5000 avg_us=5000",
		"command COMMIT: count=1 errors=0 avg_us=1000 p50_us=1000 p99_us=1000 max_us=1000",
		"command SEARCH: count=1 errors=0 avg_us=1000 p50_us=1000 p99_us=1000 max_us=1000",
		"violations " + core.ViolationKind(0).String() + ": 1",
	}
	if len(got) != len(want) {
		t.Fatalf("METRICS rendered %d lines, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	if up, ok := strings.CutPrefix(got[0], want[0]); !ok || strings.Trim(up, "0123456789") != "" || up == "" {
		t.Errorf("line 0 = %q, want %q and a millisecond count", got[0], want[0])
	}
	for i := 1; i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("line %d = %q\nwant       %q", i, got[i], want[i])
		}
	}

	// Each line is exactly one member of the expvar JSON, with the same
	// keys and values.
	for _, d := range metricsDrift(m.groups(true, "stuck", rs)) {
		t.Error(d)
	}

	// A plain journal-less primary still states its role, in the same slot
	// relative to its neighbours.
	plain := metricsLines(newMetrics(), false, "", replStatus{role: "primary"})
	idx := -1
	for i, l := range plain {
		if l == "role: primary" {
			idx = i
		}
	}
	if idx == -1 {
		t.Fatalf("no role line on a plain server:\n%s", strings.Join(plain, "\n"))
	}
	if plain[idx-1] != "journal: off" || plain[idx+1] != "epoch: 0" {
		t.Errorf("role line neighbours = %q / %q", plain[idx-1], plain[idx+1])
	}
}

// metricsDrift renders gs both ways and lists every METRICS line that
// does not map to exactly one member of the expvar JSON with the same
// keys and values, and every JSON member that no line maps to. A
// two-word line name "a b" maps to member b of object a.
func metricsDrift(gs []group) []string {
	body := lines(gs)
	raw, err := json.Marshal(snapshot(gs))
	if err != nil {
		return []string{err.Error()}
	}
	var js map[string]any
	if err := json.Unmarshal(raw, &js); err != nil {
		return []string{err.Error()}
	}
	// text renders a JSON value as the line writes it: floats to two
	// decimals where the line has them.
	text := func(v any, like string) string {
		if f, ok := v.(float64); ok {
			if strings.Contains(like, ".") {
				return fmt.Sprintf("%.2f", f)
			}
			return strconv.FormatFloat(f, 'f', -1, 64)
		}
		return fmt.Sprint(v)
	}
	var drift []string
	mapped := map[string]bool{}
	for _, l := range body {
		name, val, _ := strings.Cut(l, ": ")
		outer, inner, nested := strings.Cut(name, " ")
		member, ok := js[outer]
		if nested {
			sub, _ := member.(map[string]any)
			member, ok = sub[inner]
		}
		if !ok {
			drift = append(drift, fmt.Sprintf("%q: no JSON member %q", l, name))
			continue
		}
		mapped[name] = true
		kvs := strings.Fields(val)
		keyed := true
		for _, kv := range kvs {
			keyed = keyed && strings.Contains(kv, "=")
		}
		obj, isObj := member.(map[string]any)
		if !keyed {
			if isObj || text(member, val) != val {
				drift = append(drift, fmt.Sprintf("%q: JSON %s = %v", l, name, member))
			}
			continue
		}
		if !isObj || len(obj) != len(kvs) {
			drift = append(drift, fmt.Sprintf("%q: JSON %s = %v", l, name, member))
			continue
		}
		for _, kv := range kvs {
			k, v, _ := strings.Cut(kv, "=")
			if jv, ok := obj[k]; !ok || text(jv, v) != v {
				drift = append(drift, fmt.Sprintf("%q: JSON %s.%s = %v", l, name, k, jv))
			}
		}
	}
	for outer, member := range js {
		if mapped[outer] {
			continue
		}
		sub, _ := member.(map[string]any)
		if len(sub) == 0 {
			drift = append(drift, fmt.Sprintf("JSON member %q maps to no line", outer))
		}
		for inner := range sub {
			if !mapped[outer+" "+inner] {
				drift = append(drift, fmt.Sprintf("JSON member %q maps to no line", outer+" "+inner))
			}
		}
	}
	sort.Strings(drift)
	return drift
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
