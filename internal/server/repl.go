package server

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"boundschema/internal/ldif"
	"boundschema/internal/proto"
	"boundschema/internal/repl"
	"boundschema/internal/txn"
)

// This file wires streaming journal replication (internal/repl) into the
// server. A primary runs a dedicated replication listener: each replica
// connection is handed its catch-up — the journal tail when the on-disk
// log covers the replica's HELLO sequence, a full snapshot otherwise —
// at a quiescent point of the commit pipeline, then subscribes to the
// live stream of verbatim journal segments. Commits ship their records
// right after the local fsync; in semi-sync mode the OK is additionally
// gated on an ACK from at least one replica (repl.Hub owns that
// contract, including the degrade-to-async escape hatch).
//
// A replica dials the primary and applies the stream through the same
// machinery recovery uses: every segment is CRC- and continuity-checked
// on receipt, decoded, applied transaction-atomically under the
// incremental legality tests, and appended verbatim to the local journal
// (write + fsync) before it is acknowledged — so a replica restart
// recovers through the ordinary journal pipeline, and the primary's and
// replica's logs are byte-identical. A replicated transaction that fails
// locally is divergence: the replica degrades to read-only and stops
// retrying rather than serve state that disagrees with its primary.
//
// PROMOTE turns a caught-up replica writable: the streaming loop is
// stopped, the journal is re-verified end to end (checksums, sequence
// continuity, full legality), the replication epoch is bumped and made
// durable, and only then does the role flip.
//
// Epochs fence the old primary out after a failover. Every handshake,
// ACK, ping and shipped segment carries the shipper's epoch; a primary
// that observes a higher epoch anywhere fences itself read-only, and a
// replica refuses to apply a stream from a lower-epoch primary
// (repl.ErrStalePrimary), answering with a poison ACK that carries its
// own epoch so the stale primary learns why. During a full partition
// both sides may briefly accept writes (fencing is reactive, not a
// lease); the guarantee is that the partitioned minority fences on
// first contact with any higher-epoch artifact once connectivity
// returns, and semi-sync callers can bound the acked-write loss window
// to zero by promoting the most-advanced replica.

// Role is the server's replication role.
type Role int32

const (
	// RolePrimary (the zero value) accepts writes; with a replication
	// listener it also ships journal segments to replicas.
	RolePrimary Role = iota
	// RoleReplica applies the primary's stream and serves reads only.
	RoleReplica
)

func (r Role) String() string {
	if r == RoleReplica {
		return "replica"
	}
	return "primary"
}

// Role returns the server's current replication role.
func (s *Server) Role() Role { return Role(s.role.Load()) }

// roleString is the role as STAT and METRICS report it: a server that
// degraded to read-only (journal failure, divergence) says so instead
// of claiming a healthy role, and a primary that fenced itself after
// observing a newer epoch says "fenced" so failover tooling can tell
// the two apart.
func (s *Server) roleString() string {
	s.mu.RLock()
	ro := s.readOnly
	s.mu.RUnlock()
	if strings.HasPrefix(ro, fencedPrefix) {
		return "fenced"
	}
	if ro != "" {
		return "read-only degraded"
	}
	return s.Role().String()
}

// fencedPrefix starts the read-only reason of a fenced ex-primary; the
// rest of the reason is parseable evidence (observed epoch, source).
const fencedPrefix = proto.Fenced

// fence flips this primary read-only after it observed evidence of a
// higher replication epoch — a replica HELLO, an ACK, or a rejected
// ship all mean a PROMOTE happened elsewhere and this node lost any
// claim to the write role. Fencing is sticky: only an operator restart
// (which recovers the durable epoch) or explicit intervention clears
// it. No-op if the server is already read-only for any reason.
func (s *Server) fence(observed uint64, source string) {
	s.mu.Lock()
	if s.readOnly == "" {
		s.readOnly = fmt.Sprintf("%s observed epoch %d > local epoch %d via %s; a newer primary exists",
			fencedPrefix, observed, s.epoch.Load(), source)
		s.metrics.FencingEvents.Add(1)
		s.logf("repl: %s", s.readOnly)
	}
	s.mu.Unlock()
}

// writeRedirect returns the rejection message for write traffic on a
// replica ("" on a primary): replicas serve reads and point writers at
// the primary. The advertised address is Options.PrimaryClientAddr when
// the operator provided one (bsd -primary-client-addr); otherwise the
// replication address is the only thing the replica knows, and
// redirected clients must map it themselves.
func (s *Server) writeRedirect() string {
	if s.Role() != RoleReplica {
		return ""
	}
	addr := cmp.Or(s.opts.PrimaryClientAddr, s.opts.ReplicaOf)
	return fmt.Sprintf("read-only replica: writes go to the primary (%s%s)", proto.Redirect, addr)
}

// DisconnectReplication force-closes a replica's streaming connection.
// The streaming loop reconnects with backoff and re-runs the HELLO
// handshake, so this is safe at any point; it exists for chaos harnesses
// that drop replication links under load. No-op on a primary.
func (s *Server) DisconnectReplication() {
	s.closeReplConn()
}

// ReplStatus exposes the hub's view of replication (primaries only;
// zero value otherwise) for tests and the bsbench drivers.
func (s *Server) ReplStatus() repl.HubStatus {
	if hub := s.replHub.Load(); hub != nil {
		return hub.Status()
	}
	return repl.HubStatus{}
}

// ReplicaSeqs reports a replica's replication watermarks: the highest
// sequence applied locally and the primary's durable sequence as last
// observed from the stream. Lag is primary-local (0 when caught up).
func (s *Server) ReplicaSeqs() (local, primary uint64) {
	s.mu.RLock()
	local = s.commitSeq
	s.mu.RUnlock()
	return local, s.primarySeq.Load()
}

// replStatus feeds the role and replication lines of METRICS and the
// expvar snapshot. Collected off s.mu by replMetrics.
type replStatus struct {
	role       string
	epoch      uint64
	hub        *repl.HubStatus // primary with a replication listener
	replica    bool
	primarySeq uint64
	localSeq   uint64
	applied    int64
}

func (s *Server) replMetrics() replStatus {
	rs := replStatus{role: s.roleString(), epoch: s.epoch.Load()}
	if hub := s.replHub.Load(); hub != nil {
		st := hub.Status()
		rs.hub = &st
	}
	if s.Role() == RoleReplica {
		rs.replica = true
		rs.localSeq, rs.primarySeq = s.ReplicaSeqs()
		rs.applied = s.replApplied.Load()
	}
	return rs
}

// ListenRepl starts the primary's replication listener on addr and
// returns the bound address. Requires an open journal — the stream IS
// the journal. Open calls it, and so does a promoted replica opening
// its own fan-out while serving. Safe to call once.
func (s *Server) ListenRepl(addr string) (string, error) {
	s.mu.RLock()
	j := s.journal
	s.mu.RUnlock()
	if j == nil {
		return "", errors.New("server: replication requires a journal (OpenJournal first)")
	}
	hub := repl.NewHub(s.opts.ReplMode, s.opts.SemiSyncTimeout, 0, s.logf)
	hub.SetEpoch(s.epoch.Load())
	s.replHub.Store(hub)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		hub.Close()
		s.replHub.Store(nil)
		return "", err
	}
	if s.opts.ReplListenerWrap != nil {
		ln = s.opts.ReplListenerWrap(ln)
	}
	s.replLn = ln
	s.wg.Add(1)
	go s.replAcceptLoop(ln, hub)
	return ln.Addr().String(), nil
}

func (s *Server) replAcceptLoop(ln net.Listener, hub *repl.Hub) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			s.logf("repl: accept: %v", err)
			return
		}
		s.connsMu.Lock()
		s.conns[conn] = struct{}{}
		s.connsMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.connsMu.Lock()
				delete(s.conns, conn)
				s.connsMu.Unlock()
				conn.Close()
			}()
			s.handleReplConn(conn, hub)
		}()
	}
}

// handleReplConn serves one replica: HELLO, catch-up decision at a
// quiescent point, then a read loop turning the replica's ACK lines
// into hub acknowledgements. Segment writes happen on the hub's
// per-subscriber goroutine, so a slow replica never blocks commits.
func (s *Server) handleReplConn(conn net.Conn, hub *repl.Hub) {
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReaderSize(conn, 16*1024)
	line, err := br.ReadString('\n')
	if err != nil {
		return
	}
	last, repEpoch, err := repl.ParseHello(strings.TrimRight(line, "\r\n"))
	if err != nil {
		io.WriteString(conn, repl.ErrLine(err.Error()))
		return
	}
	if local := s.epoch.Load(); repEpoch > local {
		// The replica lived through a PROMOTE this node missed: it must
		// not follow us, and we must stop taking writes.
		s.fence(repEpoch, fmt.Sprintf("HELLO from replica %s", conn.RemoteAddr()))
		io.WriteString(conn, repl.ErrLine(fmt.Sprintf(
			"%s: this primary is at epoch %d, replica announced epoch %d", proto.StaleEpoch, local, repEpoch)))
		return
	}
	conn.SetReadDeadline(time.Time{})
	var sub *repl.Sub
	err = s.atQuiescent(func() error {
		first, ferr := s.replCatchup(last, repEpoch)
		if ferr != nil {
			return ferr
		}
		// Subscribe inside the quiescent point: the catch-up bytes were
		// captured at exactly s.commitSeq, and the subscriber queue
		// preserves order, so no segment can fall between catch-up and
		// the live stream.
		sub = hub.Subscribe(conn.RemoteAddr().String(), conn, func() { conn.Close() }, first...)
		return nil
	})
	if err != nil {
		s.logf("repl: refusing replica %s: %v", conn.RemoteAddr(), err)
		io.WriteString(conn, repl.ErrLine(err.Error()))
		return
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			break
		}
		seq, ackEpoch, aerr := repl.ParseAck(strings.TrimRight(line, "\r\n"))
		if aerr != nil {
			s.logf("repl: replica %s: %v", conn.RemoteAddr(), aerr)
			break
		}
		if ackEpoch > s.epoch.Load() {
			// A poison ACK: the replica refused our stream because it has
			// seen a newer primary. Fence and drop the session.
			s.fence(ackEpoch, fmt.Sprintf("ACK from replica %s", conn.RemoteAddr()))
			break
		}
		hub.Ack(sub, seq)
	}
	hub.Unsubscribe(sub)
}

// maxTailBytes bounds a journal-tail catch-up; a replica further behind
// than this bootstraps from a snapshot instead.
const maxTailBytes = 256 << 20

// replCatchup builds the catch-up bytes for a replica that holds
// everything through last at epoch repEpoch: a TAIL header plus the
// verbatim journal segments above last when the replica is on this
// primary's epoch and the on-disk journal covers the range cleanly, or
// a SNAPSHOT header plus the encoded instance. A replica announcing a
// LOWER epoch rejoined after missing at least one failover — its
// journal may hold a history this primary's epoch rewrote, so it never
// tails: it bootstraps from a snapshot, which resets its journal and
// adopts the current epoch. Called under s.mu at a quiescent point.
func (s *Server) replCatchup(last, repEpoch uint64) ([][]byte, error) {
	cur := s.commitSeq
	epoch := s.epoch.Load()
	if repEpoch == epoch {
		if last > cur {
			return nil, fmt.Errorf("replica is ahead of this primary (replica seq=%d, primary seq=%d): refusing to serve a diverged history", last, cur)
		}
		if last == cur {
			return [][]byte{[]byte(repl.TailHeader(cur+1, 0, epoch))}, nil
		}
		if tail, ok := s.journalTail(last, cur); ok {
			return [][]byte{[]byte(repl.TailHeader(last+1, int(cur-last), epoch)), tail}, nil
		}
	}
	// The seq and epoch headers ride inside the blob, so a replica
	// restart recovers the adopted epoch from its local snapshot sidecar.
	var buf bytes.Buffer
	if err := s.writeSnapshot(&buf); err != nil {
		return nil, fmt.Errorf("encoding snapshot: %v", err)
	}
	return [][]byte{[]byte(repl.SnapshotHeader(cur, buf.Len(), epoch)), buf.Bytes()}, nil
}

// journalTail reconstructs the verbatim segment bytes for sequences
// (last, cur] from the on-disk journal, reporting ok=false when the
// journal does not cleanly cover that range (rotated past it, torn
// tail, corruption) — the caller falls back to a snapshot. Called under
// s.mu at a quiescent point.
func (s *Server) journalTail(last, cur uint64) ([]byte, bool) {
	data, err := s.opts.FS.ReadFile(s.journal.path)
	if err != nil {
		return nil, false
	}
	sr := scanJournal(data)
	if sr.corrupt || sr.tornBytes > 0 {
		return nil, false
	}
	if sr.firstSeq == 0 || sr.firstSeq > last+1 || sr.lastSeq != cur {
		return nil, false
	}
	var buf bytes.Buffer
	for _, jt := range sr.txns {
		if jt.seq <= last {
			continue
		}
		buf.Write(repl.RawSegment(jt.seq, jt.payload, jt.epoch))
		if buf.Len() > maxTailBytes {
			return nil, false
		}
	}
	return buf.Bytes(), true
}

// errDiverged marks a replicated transaction this replica cannot hold:
// an apply failure or a legality violation means the replica's state
// disagrees with its primary's, so it degrades to read-only and the
// streaming loop stops retrying.
var errDiverged = errors.New("replica diverged from primary")

// ReplAddr returns the replication listener's bound address ("" when
// the server ships no journal).
func (s *Server) ReplAddr() string {
	if s.replLn == nil {
		return ""
	}
	return s.replLn.Addr().String()
}

// startReplica starts the streaming loop against Options.ReplicaOf. Open
// set the role before the journal opened, so there is no committer.
func (s *Server) startReplica() {
	s.promoteCh = make(chan struct{})
	s.replicaDone = make(chan struct{})
	go s.replicaLoop(s.opts.ReplicaOf)
}

// replicaStopped reports whether the streaming loop should exit:
// server shutdown or promotion.
func (s *Server) replicaStopped() bool {
	select {
	case <-s.closed:
		return true
	case <-s.promoteCh:
		return true
	default:
		return false
	}
}

func (s *Server) setReplConn(c net.Conn) {
	s.replConnMu.Lock()
	s.replConn = c
	s.replConnMu.Unlock()
}

func (s *Server) closeReplConn() {
	s.replConnMu.Lock()
	if s.replConn != nil {
		s.replConn.Close()
	}
	s.replConnMu.Unlock()
}

// replicaLoop dials the primary and streams until shutdown, promotion,
// or divergence, reconnecting with jittered backoff on transient
// failures. A reconnect re-runs the HELLO handshake, which heals
// sequence gaps: the replica re-announces what it durably holds and the
// primary re-derives the catch-up. A session refused for a stale epoch
// (the dialed primary is older than this replica) is NOT divergence:
// the loop keeps retrying so a failover manager can repoint the address
// or restart the fenced node.
func (s *Server) replicaLoop(addr string) {
	defer close(s.replicaDone)
	dial := s.opts.Dialer
	if dial == nil {
		dial = func(a string, to time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", a, to)
		}
	}
	backoff := 100 * time.Millisecond
	for {
		if s.replicaStopped() {
			return
		}
		conn, err := dial(addr, 2*time.Second)
		if err != nil {
			d := repl.JitterBackoff(backoff)
			s.logf("repl: dial %s: %v; retrying in %v", addr, err, d)
			if !s.replicaSleep(d) {
				return
			}
			backoff = repl.NextBackoff(backoff, 3*time.Second)
			continue
		}
		s.setReplConn(conn)
		// Re-check after registering the conn: closeReplConn only closes
		// the connection it can see, and shutdown/promotion may have run
		// between the dial and setReplConn. The stop signal is always
		// closed before closeReplConn, so one of the two orders holds: the
		// closer saw this conn, or this check sees the stop.
		if s.replicaStopped() {
			s.setReplConn(nil)
			conn.Close()
			return
		}
		err = repl.Run(conn, replicaTarget{s})
		s.setReplConn(nil)
		conn.Close()
		if errors.Is(err, errDiverged) {
			s.logf("repl: %v; replica is read-only degraded and will not reconnect", err)
			return
		}
		if s.replicaStopped() {
			return
		}
		if errors.Is(err, repl.ErrStalePrimary) {
			s.metrics.EpochRejects.Add(1)
		}
		d := repl.JitterBackoff(backoff)
		s.logf("repl: stream from %s ended: %v; reconnecting in %v", addr, err, d)
		if !s.replicaSleep(d) {
			return
		}
		backoff = repl.NextBackoff(backoff, 3*time.Second)
	}
}

// replicaSleep waits d, returning false if the loop should exit instead.
func (s *Server) replicaSleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.closed:
		return false
	case <-s.promoteCh:
		return false
	}
}

// replicaTarget adapts the Server to the repl.Target the streaming
// client drives.
type replicaTarget struct{ s *Server }

func (t replicaTarget) LastSeq() uint64 {
	t.s.mu.RLock()
	defer t.s.mu.RUnlock()
	return t.s.commitSeq
}

func (t replicaTarget) Epoch() uint64 { return t.s.epoch.Load() }

func (t replicaTarget) Bootstrap(seq, epoch uint64, snapshot []byte) error {
	return t.s.bootstrapFromPrimary(seq, epoch, snapshot)
}

func (t replicaTarget) Apply(seg repl.Segment) error {
	return t.s.applyReplicated(seg)
}

func (t replicaTarget) ObservePrimarySeq(seq uint64) {
	for {
		old := t.s.primarySeq.Load()
		if seq <= old || t.s.primarySeq.CompareAndSwap(old, seq) {
			return
		}
	}
}

// bootstrapFromPrimary installs a full snapshot from the primary: parse
// and legality-check the blob, install it as the local snapshot sidecar
// (installSnapshot — the rotation recipe, which also truncates the
// journal), and swap the served instance. The snapshot-seq header
// inside the blob makes every crash window benign: recovery either
// finds the old state or the new snapshot, and journal records the
// snapshot already covers are skipped by seq on replay. A snapshot from
// a higher epoch also advances this replica's epoch — that is how a
// rejoining node adopts the regime of a promoted primary.
func (s *Server) bootstrapFromPrimary(seq, epoch uint64, snapshot []byte) error {
	d, err := ldif.ReadDirectory(bytes.NewReader(snapshot), s.opts.Schema.Registry)
	if err != nil {
		return fmt.Errorf("%w: primary snapshot undecodable: %v", errDiverged, err)
	}
	if r := s.checker.Check(d); !r.Legal() {
		return fmt.Errorf("%w: primary snapshot is illegal under this replica's schema: %d violation(s)", errDiverged, len(r.Violations))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly != "" {
		return fmt.Errorf("%w: server is %s: %s", errDiverged, proto.ReadOnly, s.readOnly)
	}
	if err := s.installSnapshot(func(w io.Writer) error {
		_, werr := w.Write(snapshot)
		return werr
	}); err != nil {
		return fmt.Errorf("repl: bootstrap snapshot: %v", err)
	}
	s.dir = d
	s.dir.EnsureEncoded()
	s.commitSeq = seq
	if epoch > s.epoch.Load() {
		s.epoch.Store(epoch)
	}
	s.logf("repl: bootstrapped from primary snapshot through seq %d epoch %d (%d bytes)", seq, s.epoch.Load(), len(snapshot))
	return nil
}

// applyReplicated admits one verified segment from the primary: decode,
// check sequence continuity, apply under the incremental legality
// tests, append verbatim to the local journal (write + fsync). nil
// means the segment is locally durable — the caller acknowledges it.
// Local faults (journal I/O) roll the apply back and return a retryable
// error; a transaction this replica cannot apply, or cannot legally
// hold, is divergence: the replica degrades to read-only.
func (s *Server) applyReplicated(seg repl.Segment) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly != "" {
		return fmt.Errorf("%w: server is %s: %s", errDiverged, proto.ReadOnly, s.readOnly)
	}
	if seg.Seq <= s.commitSeq {
		return nil // duplicate after a reconnect: already durable here
	}
	if seg.Seq != s.commitSeq+1 {
		return fmt.Errorf("repl: sequence gap: local seq=%d, stream sent seq=%d", s.commitSeq, seg.Seq)
	}
	recs, err := ldif.NewReader(bytes.NewReader(seg.Payload)).ReadAll()
	if err != nil {
		s.degradeReplica(fmt.Sprintf("replicated segment seq=%d undecodable: %v", seg.Seq, err))
		return fmt.Errorf("%w: segment seq=%d undecodable: %v", errDiverged, seg.Seq, err)
	}
	tx, err := txn.FromRecords(recs, s.opts.Schema.Registry)
	if err != nil {
		s.degradeReplica(fmt.Sprintf("replicated segment seq=%d rejected: %v", seg.Seq, err))
		return fmt.Errorf("%w: segment seq=%d: %v", errDiverged, seg.Seq, err)
	}
	// The checksum and sequence say the primary sent these bytes, not
	// that they are legal here: the segment goes through the same Figure 5
	// Δ-checks as a COMMIT, O(|Δ|) per segment. An illegal one was rolled
	// back by the applier before any reader could see it; like an apply
	// failure (duplicate DN, missing parent) it is divergence — never
	// journaled, never acknowledged.
	report, undo, err := s.applier.ApplyWithUndo(s.dir, tx)
	s.dir.EnsureEncoded()
	if err != nil {
		s.degradeReplica(fmt.Sprintf("replicated transaction seq=%d failed to apply: %v", seg.Seq, err))
		return fmt.Errorf("%w: transaction seq=%d: %v", errDiverged, seg.Seq, err)
	}
	if !report.Legal() {
		reason := fmt.Sprintf("replicated transaction seq=%d is illegal here: %s", seg.Seq, firstViolation(report))
		s.degradeReplica(reason)
		return fmt.Errorf("%w: %s", errDiverged, reason)
	}
	j := s.journal
	if werr := j.append(seg.Raw); werr != nil {
		// Local fault, not divergence: roll back and let the reconnect
		// re-deliver the segment.
		if uerr := undo(); uerr != nil {
			s.degradeReplica(fmt.Sprintf("in-memory state diverged after failed journal write: %v (rollback: %v)", werr, uerr))
		}
		s.dir.EnsureEncoded()
		if j.failed != "" {
			s.degradeReplica(j.failed)
		}
		return fmt.Errorf("repl: journal append seq=%d: %v", seg.Seq, werr)
	}
	s.commitSeq = seg.Seq
	s.replApplied.Add(1)
	if s.opts.JournalRotate > 0 && j.size >= s.opts.JournalRotate {
		if rerr := s.rotateJournal(); rerr != nil {
			s.metrics.JournalErrors.Add(1)
			s.logf("repl: journal rotation: %v", rerr)
		}
	}
	return nil
}

// degradeReplica records a replica fault and flips the server
// read-only. Called under s.mu.
func (s *Server) degradeReplica(reason string) {
	if s.readOnly == "" {
		s.readOnly = reason
	}
	s.logf("repl: %s", reason)
}

// Promote turns a caught-up replica into a writable primary: stop the
// streaming loop, re-verify the local journal end to end (checksums,
// sequence continuity, full legality), bump the replication epoch and
// make it durable, and only then flip the role. The epoch bump is the
// fencing token of the failover: every segment this node ships and
// every HELLO its replicas relay carries the new epoch, so the old
// primary fences itself on first contact with any of it — and because
// the epoch is persisted (in the rotated snapshot's header) before the
// role flips, a crash+restart of this node can never resurrect the old
// epoch. Promotion is refused if the epoch cannot be made durable.
// The verify lines are returned for the PROMOTE protocol reply. The
// promoted server does not start its own replication listener — that
// remains an operator decision (restart with -repl-addr, or point the
// other replicas at it after the failover).
func (s *Server) Promote() ([]string, error) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.Role() != RoleReplica {
		return nil, errors.New("not a replica")
	}
	s.mu.RLock()
	reason := s.readOnly
	s.mu.RUnlock()
	if reason != "" {
		return nil, fmt.Errorf("replica is %s degraded: %s", proto.ReadOnly, reason)
	}
	select {
	case <-s.promoteCh:
	default:
		close(s.promoteCh)
	}
	s.closeReplConn()
	<-s.replicaDone
	// The loop may have degraded the replica on its way out.
	s.mu.RLock()
	reason = s.readOnly
	s.mu.RUnlock()
	if reason != "" {
		return nil, fmt.Errorf("replica is %s degraded: %s", proto.ReadOnly, reason)
	}
	// Final verify: with the streaming loop stopped nothing appends, so
	// the read lock is a stable point.
	s.mu.RLock()
	lines, err := s.verifyNow()
	s.mu.RUnlock()
	if err != nil {
		return lines, fmt.Errorf("refusing promotion, journal verify failed: %v", err)
	}
	// Bump the epoch and persist it by rotating the journal (the
	// snapshot header carries it) BEFORE the role flips: a node that
	// accepts a write and then forgets its epoch across a restart would
	// re-split the brain. On failure the node stays a (non-streaming)
	// replica; PROMOTE can be retried and bumps again — epochs need
	// monotonicity, not density.
	newEpoch := s.epoch.Load() + 1
	s.mu.Lock()
	s.epoch.Store(newEpoch)
	s.dir.EnsureEncoded()
	if rerr := s.rotateJournal(); rerr != nil {
		s.mu.Unlock()
		return lines, fmt.Errorf("refusing promotion, could not persist epoch %d: %v", newEpoch, rerr)
	}
	// Give the journal its committer before the role flip lets the first
	// write in — CommitTx checks the role before it takes s.mu.
	s.startCommitter()
	s.role.Store(int32(RolePrimary))
	local := s.commitSeq
	s.mu.Unlock()
	s.logf("repl: promoted to primary at seq %d epoch %d", local, newEpoch)
	return lines, nil
}

// stopReplication tears the replication machinery down at Close: the
// hub (releasing any gated commits and dropping subscribers, whose
// onDrop closes their connections) and the replica streaming loop.
// Runs before the session drain so replication connections cannot hold
// Close open.
func (s *Server) stopReplication() {
	if s.replLn != nil {
		s.replLn.Close()
	}
	if hub := s.replHub.Load(); hub != nil {
		hub.Close()
	}
	if s.replicaDone != nil {
		s.closeReplConn()
		<-s.replicaDone
	}
}
