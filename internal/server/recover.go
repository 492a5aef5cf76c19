package server

import (
	"bytes"
	"errors"
	"fmt"
	iofs "io/fs"
	"time"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/ldif"
	"boundschema/internal/repl"
	"boundschema/internal/txn"
	"boundschema/internal/vfs"
)

// This file is the crash-recovery pipeline: the journal scanner that
// validates checksums and sequence continuity, the verdict logic that
// separates a torn tail (the unacknowledged end of a crashed append —
// safe to truncate) from mid-log corruption (acknowledged data that no
// longer matches its checksum — never safe to guess about, so the
// journal is quarantined and the server refuses to start), and the
// recovery driver OpenJournal, `bsd -fsck` and the VERIFY protocol
// command share.
//
// Journal record format. Every committed transaction is one append of
//
//	<LDIF change records…>
//	# commit seq=<n> len=<payload bytes> crc=<crc32c, 8 hex digits> epoch=<e>
//
// The marker line is an LDIF comment, so generic LDIF tooling ignores
// it. seq increases by exactly one per commit (continuing across
// snapshot rotations), len is the byte length of the records above the
// marker, crc is their CRC32C, and epoch is the replication epoch the
// commit was acknowledged under. All four fields are mandatory. Because
// each append lands data before its marker, a complete marker that is
// damaged, or whose payload fails verification, cannot be a torn write
// — it is corruption; bytes with no complete marker after them are the
// torn tail. This is the only format: the bare and epoch-less markers
// of pre-checksum journals are damaged markers like any other, refused
// with an error that names the unsupported format.
//
// Snapshots carry their own continuity header: rotation writes
// "# snapshot-seq <n>" as the first line, so a crash between the
// snapshot rename and the journal truncate no longer poisons restart —
// replay simply skips journal records with seq ≤ n instead of failing
// on re-applied transactions.

// The segment framing — marker rendering, parsing and the CRC32C — is
// owned by internal/repl, because the on-disk journal and the
// replication wire stream are the same byte format. This file keeps the
// scanner, verdict logic and replay driver.
const snapshotSeqPrefix = "# snapshot-seq "

// snapshotEpochPrefix heads the second snapshot line, recording the
// replication epoch the snapshot was taken under.
const snapshotEpochPrefix = "# snapshot-epoch "

// journalTxn is one scanned transaction: the payload bytes of its LDIF
// change records plus the marker header that vouched for them.
type journalTxn struct {
	seq     uint64
	epoch   uint64
	payload []byte
}

// scanResult is the outcome of walking a journal byte-for-byte without
// applying anything.
type scanResult struct {
	txns      []journalTxn // one per record whose marker validated
	tornBytes int64        // unacknowledged tail after the last complete marker
	lastSeq   uint64       // highest verified sequence number
	firstSeq  uint64       // first verified sequence number (0 if none)
	lastEpoch uint64       // highest epoch any verified marker carries

	corrupt       bool
	corruptReason string
	corruptRecord int // 1-based record index of the first corruption
	afterCorrupt  int // complete records from the corruption onward
}

// scanJournal walks the journal and classifies every byte: verified
// records, a torn tail, or corruption. It never applies or decodes LDIF
// — that is replay's job, after the verdict.
func scanJournal(data []byte) *scanResult {
	sr := &scanResult{}
	var (
		pos, segStart int
		lastComplete  int    // offset just past the last complete marker
		expect        uint64 // next expected seq; 0 = unknown (start of the journal)
		record        int    // 1-based index of the record being scanned
	)
	fail := func(reason string) {
		sr.corrupt = true
		sr.corruptReason = reason
		sr.corruptRecord = record
	}
	for pos < len(data) {
		nl := bytes.IndexByte(data[pos:], '\n')
		if nl < 0 {
			break // incomplete final line: part of the torn tail
		}
		line := data[pos : pos+nl]
		lineEnd := pos + nl + 1
		if !repl.IsMarkerLine(line) {
			pos = lineEnd
			continue
		}
		record++
		if sr.corrupt {
			// Verdict already reached; keep counting implicated records.
			sr.afterCorrupt++
			pos, segStart, lastComplete = lineEnd, lineEnd, lineEnd
			continue
		}
		payload := data[segStart:pos]
		seq, epoch, err := repl.ParseMarker(line, payload)
		switch {
		case err != nil:
			fail(err.Error())
		case expect != 0 && seq != expect:
			fail(fmt.Sprintf("sequence break: expected seq=%d, found seq=%d", expect, seq))
		default:
			sr.txns = append(sr.txns, journalTxn{seq: seq, epoch: epoch, payload: payload})
			if sr.firstSeq == 0 {
				sr.firstSeq = seq
			}
			sr.lastSeq = seq
			if epoch > sr.lastEpoch {
				sr.lastEpoch = epoch
			}
			expect = seq + 1
		}
		if sr.corrupt {
			sr.afterCorrupt++
		}
		pos, segStart, lastComplete = lineEnd, lineEnd, lineEnd
	}
	sr.tornBytes = int64(len(data) - lastComplete)
	return sr
}

// RecoveryReport summarizes one pass of the recovery pipeline — what
// OpenJournal did at startup, what `bsd -fsck` reports, and what the
// recovery block of METRICS exposes.
type RecoveryReport struct {
	JournalPath        string `json:"journal"`
	SnapshotLoaded     bool   `json:"snapshot_loaded"`
	SnapshotSeq        uint64 `json:"snapshot_seq"`
	RecordsScanned     int    `json:"records_scanned"`  // checksum-verified records
	RecordsReplayed    int    `json:"records_replayed"` // transactions applied
	RecordsSkipped     int    `json:"records_skipped"`  // seq ≤ snapshot seq: already compacted
	TornBytes          int64  `json:"torn_bytes"`
	RecordsTruncated   int    `json:"records_truncated"` // partial records dropped with the tail
	RecordsQuarantined int    `json:"records_quarantined"`
	Quarantined        bool   `json:"quarantined"`
	QuarantinePath     string `json:"quarantine_path,omitempty"`
	CorruptReason      string `json:"corrupt_reason,omitempty"`
	// LegalityUs is the duration, in microseconds, of the full legality
	// proof the verdict rests on: at startup the base's (New's, or the
	// loaded snapshot's), under fsck the recovered instance's.
	LegalityUs int64 `json:"legality_us"`
	Legal      bool  `json:"legal"`
	Clean      bool  `json:"clean"` // nothing truncated, nothing quarantined
}

// Lines renders the report for humans (fsck output, VERIFY bodies).
func (r *RecoveryReport) Lines() []string {
	out := []string{
		fmt.Sprintf("journal %s: scanned=%d replayed=%d skipped=%d",
			r.JournalPath, r.RecordsScanned, r.RecordsReplayed, r.RecordsSkipped),
	}
	if r.SnapshotLoaded {
		out = append(out, fmt.Sprintf("snapshot: loaded seq=%d", r.SnapshotSeq))
	} else {
		out = append(out, "snapshot: none")
	}
	if r.TornBytes > 0 {
		out = append(out, fmt.Sprintf("torn tail: %d bytes (%d partial record) truncated", r.TornBytes, r.RecordsTruncated))
	}
	if r.Quarantined {
		out = append(out, fmt.Sprintf("CORRUPT: %s", r.CorruptReason))
		out = append(out, fmt.Sprintf("quarantined %d record(s) to %s; refusing to serve", r.RecordsQuarantined, r.QuarantinePath))
	}
	if r.Legal {
		out = append(out, fmt.Sprintf("legality: instance legal (full check in %d µs)", r.LegalityUs))
	} else if !r.Quarantined {
		out = append(out, "legality: INSTANCE ILLEGAL")
	}
	if r.Clean {
		out = append(out, "verdict: clean")
	} else {
		out = append(out, "verdict: not clean")
	}
	return out
}

// firstViolation renders an illegal report on one line: its first
// violation, plus "(+k more)" when there are more.
func firstViolation(r *core.Report) string {
	first := r.Violations[0].String()
	if k := len(r.Violations) - 1; k > 0 {
		return fmt.Sprintf("%s (+%d more)", first, k)
	}
	return first
}

// quarantine copies the untrusted journal bytes to <path>.quarantine
// (durably: write + fsync + parent SyncDir) so the evidence survives
// operator intervention, and returns the quarantine path.
func (s *Server) quarantine(path string, data []byte) (string, error) {
	qpath := path + ".quarantine"
	f, err := s.opts.FS.Create(qpath)
	if err != nil {
		return qpath, err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.opts.FS.SyncDir(vfs.DirOf(qpath))
	}
	return qpath, err
}

// loadSnapshot reads and validates the snapshot sidecar, returning the
// directory it holds, the sequence number it compacted through and the
// replication epoch it was taken under (both 0 for snapshots written
// before the headers existed, or none).
func (s *Server) loadSnapshot(snapPath string) (loaded bool, snapSeq, snapEpoch uint64, err error) {
	data, rerr := s.opts.FS.ReadFile(snapPath)
	if rerr != nil {
		if errors.Is(rerr, iofs.ErrNotExist) {
			return false, 0, 0, nil
		}
		return false, 0, 0, rerr
	}
	snapSeq, snapEpoch = parseSnapshotHeaders(data)
	d, proofUs, err := s.proveSnapshot(data)
	if err != nil {
		return false, 0, 0, fmt.Errorf("server: snapshot %s %v", snapPath, err)
	}
	s.mu.Lock()
	s.dir, s.baseProofUs = d, proofUs
	s.mu.Unlock()
	return true, snapSeq, snapEpoch, nil
}

// proveSnapshot decodes a snapshot blob and proves it legal in full,
// returning the directory (sealed by the proof, so readers may share it)
// and the proof's duration in µs. Boot's snapshot load and a replica's bootstrap both install
// what it returns.
func (s *Server) proveSnapshot(data []byte) (*dirtree.Directory, int64, error) {
	d, err := ldif.ReadDirectory(bytes.NewReader(data), s.opts.Schema.Registry)
	if err != nil {
		return nil, 0, fmt.Errorf("is undecodable: %v", err)
	}
	t0 := time.Now()
	if r := s.checker.Check(d); !r.Legal() {
		return nil, 0, fmt.Errorf("is illegal: %s", firstViolation(r))
	}
	proofUs := time.Since(t0).Microseconds()
	return d, proofUs, nil
}

// parseSnapshotHeaders reads the "# snapshot-seq" and "# snapshot-epoch"
// comment lines off the top of a snapshot blob. Either may be absent
// (older snapshots); the LDIF reader ignores both as comments.
func parseSnapshotHeaders(data []byte) (seq, epoch uint64) {
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			nl = len(data) - 1
		}
		line := data[:nl]
		data = data[nl+1:]
		if rest, ok := bytes.CutPrefix(line, []byte(snapshotSeqPrefix)); ok {
			fmt.Sscanf(string(rest), "%d", &seq)
			continue
		}
		if rest, ok := bytes.CutPrefix(line, []byte(snapshotEpochPrefix)); ok {
			fmt.Sscanf(string(rest), "%d", &epoch)
			continue
		}
		return seq, epoch // headers only ever lead the file
	}
	return seq, epoch
}

// recoverJournal runs the recovery pipeline for path: load the snapshot,
// scan the journal, quarantine corruption or truncate a torn tail, and
// replay. It runs no full legality proof of its own: the base it replays
// onto was proven by New or by loadSnapshot, and every replayed record
// passes the applier's Figure 5 Δ-checks, which Theorem 4.2 makes exact,
// so the recovered instance is legal by construction (Fsck and VERIFY
// prove it again in full). It leaves s.journal open for appending and
// s.commitSeq continuing the on-disk sequence. The report is returned
// even when err is non-nil, with as much detail as recovery established.
func (s *Server) recoverJournal(path string) (*RecoveryReport, error) {
	rep := &RecoveryReport{JournalPath: path}
	snapPath := path + ".snapshot"

	loaded, snapSeq, snapEpoch, err := s.loadSnapshot(snapPath)
	if err != nil {
		return rep, err
	}
	rep.SnapshotLoaded, rep.SnapshotSeq = loaded, snapSeq

	data, err := s.opts.FS.ReadFile(path)
	if err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return rep, err
	}
	sr := scanJournal(data)
	rep.RecordsScanned = len(sr.txns)
	rep.TornBytes = sr.tornBytes
	if sr.tornBytes > 0 {
		rep.RecordsTruncated = 1
	}

	// Continuity across the snapshot boundary: the journal may begin at
	// or before snapSeq+1 (rotation truncates, a crash mid-rotation does
	// not), but a first record beyond snapSeq+1 means commits are missing.
	if !sr.corrupt && snapSeq > 0 && sr.firstSeq > snapSeq+1 {
		sr.corrupt = true
		sr.corruptRecord = 1
		sr.corruptReason = fmt.Sprintf("journal begins at seq=%d but snapshot compacted through seq=%d: records missing", sr.firstSeq, snapSeq)
		sr.afterCorrupt = len(sr.txns)
	}

	quarantineNow := func(reason string, nRecords int) (*RecoveryReport, error) {
		rep.Quarantined = true
		rep.CorruptReason = reason
		rep.RecordsQuarantined = nRecords
		qpath, qerr := s.quarantine(path, data)
		rep.QuarantinePath = qpath
		if qerr != nil {
			return rep, fmt.Errorf("server: journal %s: %s; quarantine to %s also failed: %v", path, reason, qpath, qerr)
		}
		s.logf("journal %s: %s; %d record(s) quarantined to %s", path, reason, nRecords, qpath)
		return rep, fmt.Errorf("server: journal %s: %s; quarantined to %s — refusing to serve (inspect with bsd -fsck; move or delete the journal to start from the snapshot)", path, reason, qpath)
	}
	if sr.corrupt {
		return quarantineNow(sr.corruptReason, sr.afterCorrupt)
	}

	// Decode into transactions; every record's checksummed marker
	// verified.
	type replayTxn struct {
		recs []*ldif.Record
		seq  uint64
	}
	var txns []replayTxn
	for i, jt := range sr.txns {
		if len(bytes.TrimSpace(jt.payload)) == 0 {
			continue
		}
		recs, rerr := ldif.NewReader(bytes.NewReader(jt.payload)).ReadAll()
		if rerr != nil {
			return quarantineNow(fmt.Sprintf("record %d (seq=%d) undecodable despite intact marker: %v", i+1, jt.seq, rerr), len(sr.txns)-i)
		}
		txns = append(txns, replayTxn{recs: recs, seq: jt.seq})
	}

	// Replay, skipping transactions the snapshot already contains (a
	// crash between the snapshot rename and the journal truncate leaves
	// them in the journal; their seq numbers say so).
	//
	// The whole replay runs under ONE hold of s.mu: recovery finishes
	// before the listener accepts its first session, so there is no
	// reader to yield to. Records go through the same applier as a live
	// COMMIT — the Figure 5 Δ-checks cost O(|Δ|), and the dirtree layer
	// patches the encoding in O(|Δ|) — so a checksum-valid record that no
	// legitimate primary would have acknowledged is refused as it is
	// applied, and the server does not serve. It is not corruption, so
	// nothing is quarantined.
	lastSeq := snapSeq
	s.mu.Lock()
	for _, rt := range txns {
		if rt.seq <= snapSeq {
			rep.RecordsSkipped++
			continue
		}
		tx, terr := txn.FromRecords(rt.recs, s.opts.Schema.Registry)
		if terr != nil {
			s.mu.Unlock()
			return rep, fmt.Errorf("server: journal %s: %v", path, terr)
		}
		r, aerr := s.applier.Apply(s.dir, tx)
		if aerr != nil {
			s.mu.Unlock()
			return rep, fmt.Errorf("server: journal %s replay seq=%d: %v", path, rt.seq, aerr)
		}
		if !r.Legal() {
			s.mu.Unlock()
			return rep, fmt.Errorf("server: journal %s replay refused: record seq=%d is illegal: %s", path, rt.seq, firstViolation(r))
		}
		rep.RecordsReplayed++
		lastSeq = rt.seq
	}
	s.mu.Unlock()
	rep.Legal, rep.LegalityUs = true, s.baseProofUs

	// Open for appending and drop the torn tail so future appends extend
	// a clean prefix of committed transactions.
	f, err := s.opts.FS.OpenAppend(path)
	if err != nil {
		return rep, err
	}
	size := int64(len(data))
	if sr.tornBytes > 0 {
		size -= sr.tornBytes
		err := f.Truncate(size)
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return rep, fmt.Errorf("server: journal %s: truncating torn tail: %v", path, err)
		}
		s.logf("journal %s: discarded %d bytes of unacknowledged torn tail (%d partial record)", path, sr.tornBytes, rep.RecordsTruncated)
	}
	rep.Clean = sr.tornBytes == 0 && !rep.Quarantined

	// The recovered replication epoch is the highest the disk remembers
	// — snapshot header or commit marker — floored at 1, the epoch of a
	// node with no durable state yet.
	epoch := snapEpoch
	if sr.lastEpoch > epoch {
		epoch = sr.lastEpoch
	}
	if epoch == 0 {
		epoch = 1
	}

	s.mu.Lock()
	s.journal = &journal{path: path, snapPath: snapPath, f: f, size: size, metrics: s.metrics}
	s.commitSeq = lastSeq
	s.epoch.Store(epoch)
	s.mu.Unlock()
	s.metrics.JournalBytes.Store(size)
	return rep, nil
}

// Fsck runs the recovery pipeline for path without serving: the same
// verdicts and repairs as startup — snapshot load, checksum and
// sequence validation, torn-tail truncation, corruption quarantine —
// then closes the journal again and proves the recovered instance legal
// with one full check, the proof startup leaves to Theorem 4.2. The
// report is always returned; err non-nil means the journal was refused
// (and the server would refuse to start on it too, until the
// quarantined file is moved aside).
func (s *Server) Fsck(path string) (*RecoveryReport, error) {
	rep, err := s.recoverJournal(path)
	if err == nil {
		s.mu.Lock()
		j := s.journal
		s.journal = nil
		s.mu.Unlock()
		if j != nil {
			j.f.Close()
		}
		t0 := time.Now()
		s.mu.RLock()
		full := s.checker.Check(s.dir)
		s.mu.RUnlock()
		rep.Legal, rep.LegalityUs = full.Legal(), time.Since(t0).Microseconds()
		if !rep.Legal {
			err = fmt.Errorf("server: journal %s: recovered instance fails the full legality check:\n%s", path, full)
		}
	}
	s.metrics.noteRecovery(rep)
	return rep, err
}

// verifyNow is the VERIFY protocol command's engine: re-scan the
// on-disk journal against its checksums and sequence numbers, then run
// the full legality checker over the served instance. It must run at a
// point where no journal append is in flight (atQuiescent).
func (s *Server) verifyNow() ([]string, error) {
	var lines []string
	if s.journal != nil {
		data, err := s.opts.FS.ReadFile(s.journal.path)
		if err != nil && !errors.Is(err, iofs.ErrNotExist) {
			return lines, fmt.Errorf("journal unreadable: %v", err)
		}
		sr := scanJournal(data)
		lines = append(lines, fmt.Sprintf("journal %s: bytes=%d records=%d last_seq=%d",
			s.journal.path, len(data), len(sr.txns), sr.lastSeq))
		if sr.corrupt {
			return lines, fmt.Errorf("journal corrupt: %s", sr.corruptReason)
		}
		if sr.tornBytes > 0 {
			return lines, fmt.Errorf("journal has %d torn bytes past the last marker", sr.tornBytes)
		}
		if snap, err := s.opts.FS.ReadFile(s.journal.snapPath); err == nil {
			snapSeq, _ := parseSnapshotHeaders(snap)
			lines = append(lines, fmt.Sprintf("snapshot: present seq=%d", snapSeq))
		} else {
			lines = append(lines, "snapshot: none")
		}
	} else {
		lines = append(lines, "journal: off")
	}
	t0 := time.Now()
	report := s.checker.Check(s.dir)
	lines = append(lines, fmt.Sprintf("legality: checked in %d ms", time.Since(t0).Milliseconds()))
	if !report.Legal() {
		return lines, fmt.Errorf("served instance is illegal: %d violation(s)", len(report.Violations))
	}
	lines = append(lines, "verify: clean")
	return lines, nil
}
