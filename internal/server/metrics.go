package server

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"boundschema/internal/core"
	"boundschema/internal/proto"
)

// This file is the server's observability surface: per-command counters
// and latency histograms, checker timings (which execution path the
// legality engine took), violation-kind counters, and live gauges for
// connections and transactions. Everything is lock-free atomics so the
// hot protocol paths pay one or two atomic adds per command. One ordered
// list of groups, built by metrics.groups, is the model both forms read:
// lines renders it as the METRICS protocol body and snapshot as the JSON
// that cmd/bsd's expvar endpoint serves, so a counter is written once.

// histBuckets is the number of power-of-two latency buckets. Bucket 0
// counts sub-microsecond observations and bucket i counts durations in
// [2^(i-1), 2^i) microseconds, so the last bucket opens at ~2^20 µs ≈ 1 s.
const histBuckets = 22

// histogram is a fixed-bucket latency histogram safe for concurrent use.
type histogram struct {
	count   atomic.Int64
	sumUS   atomic.Int64
	maxUS   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	h.observeValue(d.Microseconds())
}

// observeValue records a raw value into the power-of-two buckets; the
// batch-size histogram uses it directly (the field names read in µs but
// the machinery is unit-agnostic).
func (h *histogram) observeValue(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sumUS.Add(v)
	for {
		old := h.maxUS.Load()
		if v <= old || h.maxUS.CompareAndSwap(old, v) {
			break
		}
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
}

// quantile returns an upper bound on the q-quantile in microseconds,
// resolved to the histogram's bucket boundaries.
func (h *histogram) quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q*float64(n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if i == 0 {
				return 0
			}
			ub := int64(1) << uint(i)
			if mx := h.maxUS.Load(); mx < ub {
				return mx // tighter bound when the max falls in this bucket
			}
			return ub
		}
	}
	return h.maxUS.Load()
}

func (h *histogram) avgUS() int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.sumUS.Load() / n
}

// cmdStats aggregates one protocol command.
type cmdStats struct {
	hist histogram
	errs atomic.Int64
}

// nViolationKinds sizes the per-kind violation counters; the kinds are a
// closed enum ending at ViolationForbiddenRel.
const nViolationKinds = int(core.ViolationForbiddenRel) + 1

// metrics holds the server's counters and gauges. All fields are safe for
// concurrent use; construct with newMetrics.
type metrics struct {
	start time.Time

	// Connection lifecycle.
	ConnsActive    atomic.Int64 // gauge: sessions currently being served
	ConnsTotal     atomic.Int64 // accepted connections, ever
	ConnsThrottled atomic.Int64 // accepts that waited for a MaxConns slot
	IdleTimeouts   atomic.Int64 // sessions cut by the idle timeout
	LinesTooLong   atomic.Int64 // sessions cut by the line-length cap
	ScanErrors     atomic.Int64 // sessions cut by other read errors
	AcceptRetries  atomic.Int64 // transient Accept errors backed off from

	// Transactions.
	TxActive    atomic.Int64 // gauge: sessions inside BEGIN..COMMIT
	TxCommitted atomic.Int64
	TxIllegal   atomic.Int64
	TxErrors    atomic.Int64

	// Search access paths: which side of the planner's choice each SEARCH
	// landed on. Indexed covers posting-list and attribute-index probes
	// (and statically-empty filters); Scanned counts full view scans.
	SearchIndexed atomic.Int64
	SearchScanned atomic.Int64

	// Journal.
	JournalBytes     atomic.Int64 // gauge: live journal size
	JournalRotations atomic.Int64
	JournalErrors    atomic.Int64

	// Replication fencing: FencingEvents counts times this node fenced
	// itself after observing a higher epoch; EpochRejects counts streams
	// this node refused to follow because the primary's epoch was stale.
	FencingEvents atomic.Int64
	EpochRejects  atomic.Int64

	// recovery is the report of the last recovery pass (OpenJournal's
	// startup pass, or Fsck's); nil until one ran.
	recovery atomic.Pointer[RecoveryReport]

	// Group commit: one observation per fsync, valued at how many
	// commits that sync made durable. count = fsyncs, sum = commits, so
	// sum/count is the commits-per-fsync amortization and count/sum the
	// fsyncs-per-commit cost gauge.
	batchSizes histogram

	// Checker timings, split by the execution path taken.
	checkSeqCount atomic.Int64
	checkSeqNS    atomic.Int64
	checkParCount atomic.Int64
	checkParNS    atomic.Int64
	checkWorkers  atomic.Int64 // workers of the most recent parallel check

	violations [nViolationKinds]atomic.Int64
	cmds       map[string]*cmdStats
}

// newMetrics meters each command of the protocol's table under its own
// name; anything else lands in the UNKNOWN bucket.
func newMetrics() *metrics {
	m := &metrics{start: time.Now(), cmds: map[string]*cmdStats{"UNKNOWN": {}}}
	for _, c := range proto.Commands {
		m.cmds[c.Name] = &cmdStats{}
	}
	return m
}

// observeCommand records one handled protocol command. The cmds map is
// fixed at construction, so concurrent lookups are safe.
func (m *metrics) observeCommand(cmd string, d time.Duration, failed bool) {
	st, ok := m.cmds[cmd]
	if !ok {
		st = m.cmds["UNKNOWN"]
	}
	st.hist.observe(d)
	if failed {
		st.errs.Add(1)
	}
}

// noteRecovery publishes the recovery pass's outcome. Called with
// whatever report recovery produced, even on refusal.
func (m *metrics) noteRecovery(r *RecoveryReport) {
	if r != nil {
		m.recovery.Store(r)
	}
}

// noteBatch records one journal fsync that made n commits durable.
func (m *metrics) noteBatch(n int) {
	m.batchSizes.observeValue(int64(n))
}

// noteCheckTiming is installed as the shared Checker's OnTiming hook.
func (m *metrics) noteCheckTiming(t core.CheckTiming) {
	if t.Workers > 1 {
		m.checkParCount.Add(1)
		m.checkParNS.Add(int64(t.Duration))
		m.checkWorkers.Store(int64(t.Workers))
	} else {
		m.checkSeqCount.Add(1)
		m.checkSeqNS.Add(int64(t.Duration))
	}
}

// noteViolations bumps the per-kind counters for every violation in a
// report surfaced to a client (an ILLEGAL commit or CHECK).
func (m *metrics) noteViolations(r *core.Report) {
	if r == nil {
		return
	}
	for _, v := range r.Violations {
		if k := int(v.Kind); k >= 0 && k < nViolationKinds {
			m.violations[k].Add(1)
		}
	}
}

// field is one value of a group: key=val, or the group's whole value
// when key is empty. val is an integer, a float64 or a string.
type field struct {
	key string
	val any
}

// group is one METRICS line and one member of the expvar JSON.
type group struct {
	name   string
	fields []field
}

// bit renders a boolean gauge as 0 or 1.
func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// groups collects the metrics in METRICS order: aggregate gauges first,
// then the node's replication role and state, then checker timings, then
// the non-zero commands alphabetically, then the non-zero violation kinds
// in enum order. The ordering is part of the surface — TestMetricsLineOrder
// pins it — so scraping scripts can rely on it.
func (m *metrics) groups(journalOn bool, readOnly string, rs replStatus) []group {
	one := func(name string, v any) group { return group{name, []field{{"", v}}} }
	gs := []group{
		one("uptime_ms", time.Since(m.start).Milliseconds()),
		{"connections", []field{{"active", m.ConnsActive.Load()}, {"total", m.ConnsTotal.Load()},
			{"throttled", m.ConnsThrottled.Load()}}},
		{"sessions", []field{{"idle_timeouts", m.IdleTimeouts.Load()}, {"lines_too_long", m.LinesTooLong.Load()},
			{"scan_errors", m.ScanErrors.Load()}, {"accept_retries", m.AcceptRetries.Load()}}},
		{"transactions", []field{{"active", m.TxActive.Load()}, {"committed", m.TxCommitted.Load()},
			{"illegal", m.TxIllegal.Load()}, {"errors", m.TxErrors.Load()}}},
	}
	if idx, sc := m.SearchIndexed.Load(), m.SearchScanned.Load(); idx+sc > 0 {
		gs = append(gs, group{"search", []field{{"indexed", idx}, {"scanned", sc}}})
	}
	if journalOn {
		gs = append(gs, group{"journal", []field{{"bytes", m.JournalBytes.Load()},
			{"rotations", m.JournalRotations.Load()}, {"errors", m.JournalErrors.Load()}}})
		if fsyncs := m.batchSizes.count.Load(); fsyncs > 0 {
			commits := m.batchSizes.sumUS.Load()
			gs = append(gs, group{"group-commit", []field{{"fsyncs", fsyncs}, {"commits", commits},
				{"commits_per_fsync", float64(commits) / float64(fsyncs)},
				{"fsyncs_per_commit", float64(fsyncs) / float64(commits)},
				{"max_batch", m.batchSizes.maxUS.Load()}, {"p99_batch", m.batchSizes.quantile(0.99)}}})
		}
	} else {
		gs = append(gs, one("journal", "off"))
	}
	if r := m.recovery.Load(); r != nil {
		gs = append(gs, group{"recovery", []field{{"journal_records_scanned", r.RecordsScanned},
			{"journal_records_replayed", r.RecordsReplayed}, {"journal_records_truncated", r.RecordsTruncated},
			{"journal_records_quarantined", r.RecordsQuarantined}, {"recovery_legality_us", r.LegalityUs},
			{"recovery_clean", bit(r.Clean)}}})
	}
	if readOnly != "" {
		gs = append(gs, one("read_only", readOnly))
	}
	gs = append(gs, one("role", rs.role), one("epoch", rs.epoch))
	if fe, er := m.FencingEvents.Load(), m.EpochRejects.Load(); fe+er > 0 {
		gs = append(gs, group{"fencing", []field{{"events", fe}, {"epoch_rejects", er}}})
	}
	if h := rs.hub; h != nil {
		gs = append(gs, group{"replication", []field{{"mode", h.Mode.String()}, {"replicas", h.Replicas},
			{"last_shipped", h.LastShipped}, {"acked_seq", h.AckedSeq},
			{"semisync_degraded", bit(h.Degraded)}, {"epoch", h.Epoch}}})
	}
	if rs.replica {
		var lag uint64
		if rs.primarySeq > rs.localSeq {
			lag = rs.primarySeq - rs.localSeq
		}
		gs = append(gs, group{"replica", []field{{"primary_seq", rs.primarySeq},
			{"applied_seq", rs.localSeq}, {"lag", lag}, {"applied", rs.applied}}})
	}
	seqN, seqNS := m.checkSeqCount.Load(), m.checkSeqNS.Load()
	parN, parNS := m.checkParCount.Load(), m.checkParNS.Load()
	gs = append(gs,
		group{"checker sequential", []field{{"count", seqN}, {"total_us", seqNS / 1000},
			{"avg_us", avgUS(seqNS, seqN)}}},
		group{"checker parallel", []field{{"count", parN}, {"workers", m.checkWorkers.Load()},
			{"total_us", parNS / 1000}, {"avg_us", avgUS(parNS, parN)}}},
	)
	names := make([]string, 0, len(m.cmds))
	for name, st := range m.cmds {
		if st.hist.count.Load() > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		st := m.cmds[name]
		gs = append(gs, group{"command " + name, []field{{"count", st.hist.count.Load()},
			{"errors", st.errs.Load()}, {"avg_us", st.hist.avgUS()}, {"p50_us", st.hist.quantile(0.50)},
			{"p99_us", st.hist.quantile(0.99)}, {"max_us", st.hist.maxUS.Load()}}})
	}
	for k := 0; k < nViolationKinds; k++ {
		if n := m.violations[k].Load(); n > 0 {
			gs = append(gs, one("violations "+core.ViolationKind(k).String(), n))
		}
	}
	return gs
}

func avgUS(ns, n int64) int64 {
	if n == 0 {
		return 0
	}
	return ns / n / 1000
}

// lines renders groups as the METRICS protocol body: one "name: k=v ..."
// line per group, or "name: v" for a group with one unkeyed value, floats
// to two decimals.
func lines(gs []group) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		b := append([]byte(g.name), ':')
		for _, f := range g.fields {
			b = append(b, ' ')
			if f.key != "" {
				b = append(append(b, f.key...), '=')
			}
			if x, ok := f.val.(float64); ok {
				b = fmt.Appendf(b, "%.2f", x)
			} else {
				b = fmt.Append(b, f.val)
			}
		}
		out[i] = string(b)
	}
	return out
}

// snapshot renders groups as the JSON-marshalable tree cmd/bsd's expvar
// endpoint serves: each group is a member holding an object of its keyed
// fields, or its one unkeyed value; a two-word name "a b" is member b of
// object a.
func snapshot(gs []group) map[string]any {
	out := make(map[string]any, len(gs))
	for _, g := range gs {
		var v any
		if len(g.fields) == 1 && g.fields[0].key == "" {
			v = g.fields[0].val
		} else {
			obj := make(map[string]any, len(g.fields))
			for _, f := range g.fields {
				obj[f.key] = f.val
			}
			v = obj
		}
		outer, inner, nested := strings.Cut(g.name, " ")
		if !nested {
			out[g.name] = v
			continue
		}
		sub, _ := out[outer].(map[string]any)
		if sub == nil {
			sub = map[string]any{}
			out[outer] = sub
		}
		sub[inner] = v
	}
	return out
}
