package server

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"

	"boundschema/internal/core"
	"boundschema/internal/proto"
)

// This file is the server's observability surface: per-command counters
// and latency histograms, checker timings (which execution path the
// legality engine took), violation-kind counters, and live gauges for
// connections and transactions. Everything is lock-free atomics so the
// hot protocol paths pay one or two atomic adds per command; the METRICS
// protocol command and the cmd/bsd expvar endpoint render snapshots.

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

// Metrics holds the server's counters and gauges. All fields are safe for
// concurrent use; construct with newMetrics.
type Metrics struct {
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

	// Recovery: what OpenJournal's startup pass found. Set once per
	// process (recRan flips to 1); recClean is a gauge — 1 means the last
	// recovery neither truncated nor quarantined anything.
	recRan         atomic.Int64
	recScanned     atomic.Int64 // journal_records_scanned
	recReplayed    atomic.Int64 // journal_records_replayed
	recTruncated   atomic.Int64 // journal_records_truncated
	recQuarantined atomic.Int64 // journal_records_quarantined
	recLegalityUs  atomic.Int64 // recovery_legality_us
	recClean       atomic.Int64 // recovery_clean gauge

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
func newMetrics() *Metrics {
	m := &Metrics{start: time.Now(), cmds: map[string]*cmdStats{"UNKNOWN": {}}}
	for _, c := range proto.Commands {
		m.cmds[c.Name] = &cmdStats{}
	}
	return m
}

// observeCommand records one handled protocol command. The cmds map is
// fixed at construction, so concurrent lookups are safe.
func (m *Metrics) observeCommand(cmd string, d time.Duration, failed bool) {
	st, ok := m.cmds[cmd]
	if !ok {
		st = m.cmds["UNKNOWN"]
	}
	st.hist.observe(d)
	if failed {
		st.errs.Add(1)
	}
}

// noteRecovery publishes the startup recovery pass's outcome. Called by
// OpenJournal with whatever report recovery produced, even on refusal.
func (m *Metrics) noteRecovery(r *RecoveryReport) {
	if r == nil {
		return
	}
	m.recRan.Store(1)
	m.recScanned.Store(int64(r.RecordsScanned))
	m.recReplayed.Store(int64(r.RecordsReplayed))
	m.recTruncated.Store(int64(r.RecordsTruncated))
	m.recQuarantined.Store(int64(r.RecordsQuarantined))
	m.recLegalityUs.Store(r.LegalityUs)
	if r.Clean {
		m.recClean.Store(1)
	} else {
		m.recClean.Store(0)
	}
}

// noteBatch records one journal fsync that made n commits durable.
func (m *Metrics) noteBatch(n int) {
	m.batchSizes.observeValue(int64(n))
}

// Fsyncs returns how many journal syncs have run (one per batch).
func (m *Metrics) Fsyncs() int64 { return m.batchSizes.count.Load() }

// BatchedCommits returns how many commits those syncs made durable.
func (m *Metrics) BatchedCommits() int64 { return m.batchSizes.sumUS.Load() }

// noteCheckTiming is installed as the shared Checker's OnTiming hook.
func (m *Metrics) noteCheckTiming(t core.CheckTiming) {
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
func (m *Metrics) noteViolations(r *core.Report) {
	if r == nil {
		return
	}
	for _, v := range r.Violations {
		if k := int(v.Kind); k >= 0 && k < nViolationKinds {
			m.violations[k].Add(1)
		}
	}
}

// lines renders the METRICS protocol response body in a fixed order:
// aggregate gauges first, then the node's replication role and state,
// then checker timings, then the non-zero commands alphabetically, then
// the non-zero violation kinds in enum order. The ordering is part of
// the surface — TestMetricsLineOrder pins it — so scraping scripts can
// rely on it.
func (m *Metrics) lines(journalOn bool, readOnly string, rs replStatus) []string {
	var out []string
	out = append(out,
		fmt.Sprintf("uptime_ms: %d", time.Since(m.start).Milliseconds()),
		fmt.Sprintf("connections: active=%d total=%d throttled=%d",
			m.ConnsActive.Load(), m.ConnsTotal.Load(), m.ConnsThrottled.Load()),
		fmt.Sprintf("sessions: idle_timeouts=%d lines_too_long=%d scan_errors=%d accept_retries=%d",
			m.IdleTimeouts.Load(), m.LinesTooLong.Load(), m.ScanErrors.Load(), m.AcceptRetries.Load()),
		fmt.Sprintf("transactions: active=%d committed=%d illegal=%d errors=%d",
			m.TxActive.Load(), m.TxCommitted.Load(), m.TxIllegal.Load(), m.TxErrors.Load()),
	)
	if idx, sc := m.SearchIndexed.Load(), m.SearchScanned.Load(); idx+sc > 0 {
		out = append(out, fmt.Sprintf("search: indexed=%d scanned=%d", idx, sc))
	}
	if journalOn {
		out = append(out, fmt.Sprintf("journal: bytes=%d rotations=%d errors=%d",
			m.JournalBytes.Load(), m.JournalRotations.Load(), m.JournalErrors.Load()))
		if fsyncs := m.batchSizes.count.Load(); fsyncs > 0 {
			commits := m.batchSizes.sumUS.Load()
			out = append(out, fmt.Sprintf(
				"group-commit: fsyncs=%d commits=%d commits_per_fsync=%.2f fsyncs_per_commit=%.2f max_batch=%d p99_batch=%d",
				fsyncs, commits, float64(commits)/float64(fsyncs), float64(fsyncs)/float64(commits),
				m.batchSizes.maxUS.Load(), m.batchSizes.quantile(0.99)))
		}
	} else {
		out = append(out, "journal: off")
	}
	if m.recRan.Load() == 1 {
		out = append(out, fmt.Sprintf(
			"recovery: journal_records_scanned=%d journal_records_replayed=%d journal_records_truncated=%d journal_records_quarantined=%d recovery_legality_us=%d recovery_clean=%d",
			m.recScanned.Load(), m.recReplayed.Load(),
			m.recTruncated.Load(), m.recQuarantined.Load(),
			m.recLegalityUs.Load(), m.recClean.Load()))
	}
	if readOnly != "" {
		out = append(out, "read_only: "+readOnly)
	}
	out = append(out, "role: "+rs.role)
	out = append(out, fmt.Sprintf("epoch: %d", rs.epoch))
	if fe, er := m.FencingEvents.Load(), m.EpochRejects.Load(); fe+er > 0 {
		out = append(out, fmt.Sprintf("fencing: events=%d epoch_rejects=%d", fe, er))
	}
	if rs.hub != nil {
		degraded := 0
		if rs.hub.Degraded {
			degraded = 1
		}
		out = append(out, fmt.Sprintf(
			"replication: mode=%s replicas=%d last_shipped=%d acked_seq=%d semisync_degraded=%d epoch=%d",
			rs.hub.Mode, rs.hub.Replicas, rs.hub.LastShipped, rs.hub.AckedSeq, degraded, rs.hub.Epoch))
	}
	if rs.replica {
		var lag uint64
		if rs.primarySeq > rs.localSeq {
			lag = rs.primarySeq - rs.localSeq
		}
		out = append(out, fmt.Sprintf(
			"replica: primary_seq=%d applied_seq=%d lag=%d applied=%d",
			rs.primarySeq, rs.localSeq, lag, rs.applied))
	}
	seqN, seqNS := m.checkSeqCount.Load(), m.checkSeqNS.Load()
	parN, parNS := m.checkParCount.Load(), m.checkParNS.Load()
	out = append(out,
		fmt.Sprintf("checker sequential: count=%d total_us=%d avg_us=%d",
			seqN, seqNS/1000, avgUS(seqNS, seqN)),
		fmt.Sprintf("checker parallel: count=%d workers=%d total_us=%d avg_us=%d",
			parN, m.checkWorkers.Load(), parNS/1000, avgUS(parNS, parN)),
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
		out = append(out, fmt.Sprintf(
			"command %s: count=%d errors=%d avg_us=%d p50_us=%d p99_us=%d max_us=%d",
			name, st.hist.count.Load(), st.errs.Load(), st.hist.avgUS(),
			st.hist.quantile(0.50), st.hist.quantile(0.99), st.hist.maxUS.Load()))
	}
	for k := 0; k < nViolationKinds; k++ {
		if n := m.violations[k].Load(); n > 0 {
			out = append(out, fmt.Sprintf("violations %s: %d", core.ViolationKind(k), n))
		}
	}
	return out
}

func avgUS(ns, n int64) int64 {
	if n == 0 {
		return 0
	}
	return ns / n / 1000
}

// snapshot returns the metrics as nested JSON-marshalable maps, the shape
// served by cmd/bsd's expvar endpoint.
func (m *Metrics) snapshot(journalOn bool, readOnly string, rs replStatus) map[string]any {
	out := map[string]any{
		"uptime_ms": time.Since(m.start).Milliseconds(),
		"connections": map[string]int64{
			"active":         m.ConnsActive.Load(),
			"total":          m.ConnsTotal.Load(),
			"throttled":      m.ConnsThrottled.Load(),
			"idle_timeouts":  m.IdleTimeouts.Load(),
			"lines_too_long": m.LinesTooLong.Load(),
			"scan_errors":    m.ScanErrors.Load(),
			"accept_retries": m.AcceptRetries.Load(),
		},
		"transactions": map[string]int64{
			"active":    m.TxActive.Load(),
			"committed": m.TxCommitted.Load(),
			"illegal":   m.TxIllegal.Load(),
			"errors":    m.TxErrors.Load(),
		},
		"search": map[string]int64{
			"indexed": m.SearchIndexed.Load(),
			"scanned": m.SearchScanned.Load(),
		},
		"checker": map[string]int64{
			"sequential_count":    m.checkSeqCount.Load(),
			"sequential_total_us": m.checkSeqNS.Load() / 1000,
			"parallel_count":      m.checkParCount.Load(),
			"parallel_total_us":   m.checkParNS.Load() / 1000,
			"parallel_workers":    m.checkWorkers.Load(),
		},
	}
	if journalOn {
		jm := map[string]any{
			"bytes":     m.JournalBytes.Load(),
			"rotations": m.JournalRotations.Load(),
			"errors":    m.JournalErrors.Load(),
		}
		if fsyncs := m.batchSizes.count.Load(); fsyncs > 0 {
			commits := m.batchSizes.sumUS.Load()
			jm["fsyncs"] = fsyncs
			jm["batched_commits"] = commits
			jm["commits_per_fsync"] = float64(commits) / float64(fsyncs)
			jm["fsyncs_per_commit"] = float64(fsyncs) / float64(commits)
			jm["max_batch"] = m.batchSizes.maxUS.Load()
			jm["p99_batch"] = m.batchSizes.quantile(0.99)
		}
		out["journal"] = jm
	}
	if m.recRan.Load() == 1 {
		out["recovery"] = map[string]int64{
			"journal_records_scanned":     m.recScanned.Load(),
			"journal_records_replayed":    m.recReplayed.Load(),
			"journal_records_truncated":   m.recTruncated.Load(),
			"journal_records_quarantined": m.recQuarantined.Load(),
			"recovery_legality_us":        m.recLegalityUs.Load(),
			"recovery_clean":              m.recClean.Load(),
		}
	}
	if readOnly != "" {
		out["read_only"] = readOnly
	}
	out["role"] = rs.role
	out["epoch"] = rs.epoch
	if fe, er := m.FencingEvents.Load(), m.EpochRejects.Load(); fe+er > 0 {
		out["fencing"] = map[string]int64{
			"events":        fe,
			"epoch_rejects": er,
		}
	}
	if rs.hub != nil {
		out["replication"] = map[string]any{
			"mode":              rs.hub.Mode.String(),
			"replicas":          rs.hub.Replicas,
			"last_shipped":      rs.hub.LastShipped,
			"acked_seq":         rs.hub.AckedSeq,
			"semisync_degraded": rs.hub.Degraded,
			"epoch":             rs.hub.Epoch,
		}
	}
	if rs.replica {
		var lag uint64
		if rs.primarySeq > rs.localSeq {
			lag = rs.primarySeq - rs.localSeq
		}
		out["replica"] = map[string]uint64{
			"primary_seq": rs.primarySeq,
			"applied_seq": rs.localSeq,
			"lag":         lag,
			"applied":     uint64(rs.applied),
		}
	}
	cmds := make(map[string]any)
	for name, st := range m.cmds {
		if n := st.hist.count.Load(); n > 0 {
			cmds[name] = map[string]int64{
				"count":  n,
				"errors": st.errs.Load(),
				"avg_us": st.hist.avgUS(),
				"p50_us": st.hist.quantile(0.50),
				"p99_us": st.hist.quantile(0.99),
				"max_us": st.hist.maxUS.Load(),
			}
		}
	}
	out["commands"] = cmds
	viol := make(map[string]int64)
	for k := 0; k < nViolationKinds; k++ {
		if n := m.violations[k].Load(); n > 0 {
			viol[core.ViolationKind(k).String()] = n
		}
	}
	out["violations"] = viol
	return out
}
