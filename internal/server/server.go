// Package server implements a small directory server that enforces a
// bounding-schema on every update — the deployment the paper targets: an
// LDAP-style store whose instances stay legal by construction.
//
// The wire protocol is the line protocol internal/proto defines: its
// grammar, reply framing and ERR vocabulary live there, and a session
// here dispatches the parsed requests. SEARCH filters run through the
// cost-based hquery planner, so typed atoms are answered from the
// attribute-value indexes when cheaper than a scan. Transactions are
// applied atomically with the Figure 5 incremental checks; a violating
// COMMIT leaves the directory unchanged and reports the violations.
//
// Durability: when a journal is configured, OK after COMMIT means the
// transaction was applied AND recorded in the journal (write + fsync). A
// failed journal write rolls the directory back and replies ERR; see
// journal.go for the read-only degradation and rotation rules, and
// groupcommit.go for the committer that keeps the contract while
// coalescing concurrent commits into one sync.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/filter"
	"boundschema/internal/hquery"
	"boundschema/internal/ldif"
	"boundschema/internal/proto"
	"boundschema/internal/repl"
	"boundschema/internal/schemadsl"
	"boundschema/internal/txn"
	"boundschema/internal/vfs"
)

// maxAcceptBackoff caps the exponential backoff acceptLoop applies after
// transient Accept errors (e.g. EMFILE), mirroring net/http.Server.Serve.
const maxAcceptBackoff = time.Second

// Limits configures the connection lifecycle. The zero value means "no
// limits" (and a 1 s default drain on Close).
type Limits struct {
	// ReadTimeout bounds a single read syscall, guarding against peers
	// that trickle bytes forever without completing a line. 0 = none.
	ReadTimeout time.Duration
	// IdleTimeout bounds the wait for the next protocol line; an idle
	// session is cut with "ERR idle timeout". 0 = none.
	IdleTimeout time.Duration
	// MaxConns caps concurrently served sessions. When at capacity the
	// accept loop blocks (backpressure: further clients queue in the
	// listen backlog) instead of spawning unbounded sessions. 0 = no cap.
	MaxConns int
	// DrainTimeout is the grace Close gives in-flight sessions before
	// force-closing their connections. 0 = 1 s default.
	DrainTimeout time.Duration
}

// Options is everything a server boots with; Open runs the boot steps
// it asks for, and nothing changes it afterwards. A zero field means
// "off" or the default.
type Options struct {
	// New's arguments: the bounding-schema, its name, and the initial
	// instance, which must be legal under it.
	Schema   *core.Schema
	Name     string
	Instance *dirtree.Directory

	Addr    string // client listener; "127.0.0.1:0" picks a free port
	Journal string // change log to recover and append to; "" = none
	// ReplAddr makes a primary that ships its journal to replicas on this
	// address; ReplicaOf makes a read-only replica streaming from a
	// primary's ReplAddr. Each requires Journal; at most one is set.
	ReplAddr  string
	ReplicaOf string

	FS            vfs.FS // journal, snapshot and quarantine I/O; nil = vfs.OS{}
	JournalRotate int64  // compact the journal past this many bytes; 0 = never
	Limits        Limits
	ErrorLog      *log.Logger // operational events; nil discards them
	// ReplMode is a primary's COMMIT contract (see repl.Mode);
	// SemiSyncTimeout bounds a semi-sync wait for a replica ACK before
	// the primary degrades to async (0 = repl.DefaultAckTimeout).
	ReplMode        repl.Mode
	SemiSyncTimeout time.Duration
	// PrimaryClientAddr is the primary's client address a replica's
	// write redirects advertise; "" advertises ReplicaOf, which does not
	// speak the client protocol.
	PrimaryClientAddr string
	// ShardName and ShardRoots label the server as one shard of a routed
	// deployment (cmd/bsrouter) owning those subtrees; STAT and METRICS
	// report them. Purely informational.
	ShardName  string
	ShardRoots []string
	// Dialer replaces net.DialTimeout for a replica's connection to its
	// primary; ReplListenerWrap wraps every replication listener. Tests
	// thread internal/netfault through both; nil = the real network.
	Dialer           func(addr string, timeout time.Duration) (net.Conn, error)
	ReplListenerWrap func(net.Listener) net.Listener
}

// Server serves one directory instance guarded by one bounding-schema.
type Server struct {
	opts Options // set by New (Schema, Name, FS) and Open; read-only after
	// applier Δ-checks every transaction this node applies: COMMIT,
	// journal replay and replicated segments. It keeps no state of its
	// own, so any directory installed under s.mu is checked correctly from
	// its first transaction.
	applier *txn.Applier
	checker *core.Checker

	// mu guards dir, journal state and readOnly. Writers (COMMIT, journal
	// replay, replicated segments) mutate under the write lock; reader
	// sessions run under the read lock. Every directory installed here was
	// proven by Checker.Check, which seals it, and a sealed directory
	// patches its encoding on every mutation, so its reads write nothing.
	mu  sync.RWMutex
	dir *dirtree.Directory
	// baseProofUs is the duration, in µs, of the full legality proof of
	// the instance recovery replays onto: New's, or the loaded snapshot's.
	// Replay Δ-checks every record on top of it, so startup proves nothing
	// more and reports this as recovery_legality_us.
	baseProofUs int64

	ln        net.Listener
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	connsMu sync.Mutex
	conns   map[net.Conn]struct{}

	metrics *Metrics

	journal  *journal // nil when journaling is off
	readOnly string   // non-empty reason = refuse COMMIT/SNAPSHOT

	// committer (see groupcommit.go) is non-nil on every journaled node —
	// journal-less servers have nothing to sync; commitSeq orders records
	// (assigned under mu).
	committer *committer
	commitSeq uint64

	// Replication (see repl.go). role is primary (the zero value) or,
	// once startReplica runs, replica; Promote flips it back. replHub is
	// non-nil once ListenRepl started the primary's fan-out. promoteCh,
	// replicaDone and replConn belong to a replica's streaming loop;
	// primarySeq and replApplied feed the lag gauge.
	role        atomic.Int32
	replHub     atomic.Pointer[repl.Hub]
	replLn      net.Listener
	promoteMu   sync.Mutex
	promoteCh   chan struct{}
	replicaDone chan struct{}
	replConnMu  sync.Mutex
	replConn    net.Conn
	primarySeq  atomic.Uint64
	replApplied atomic.Int64

	// epoch is the replication epoch this node last adopted: 1 from New,
	// recovered from the journal/snapshot headers by OpenJournal, bumped
	// (and persisted via rotation) by Promote, adopted from the wire by a
	// bootstrap. A primary that observes a higher epoch fences itself
	// read-only (see fence in repl.go).
	epoch atomic.Uint64
}

// New creates a server over the given schema and initial instance. The
// instance must be legal; New refuses otherwise so the invariant "the
// served directory is always legal" holds from the start.
func New(schema *core.Schema, name string, dir *dirtree.Directory) (*Server, error) {
	checker := core.NewChecker(schema)
	t0 := time.Now()
	if r := checker.Check(dir); !r.Legal() {
		return nil, fmt.Errorf("server: initial instance is illegal:\n%s", r)
	}
	proofUs := time.Since(t0).Microseconds()
	s := &Server{
		opts:        Options{Schema: schema, Name: name, FS: vfs.OS{}},
		applier:     txn.NewApplier(schema),
		checker:     checker,
		dir:         dir,
		baseProofUs: proofUs,
		closed:      make(chan struct{}),
		conns:       make(map[net.Conn]struct{}),
		metrics:     newMetrics(),
	}
	checker.OnTiming = s.metrics.noteCheckTiming
	s.epoch.Store(1)
	return s, nil
}

// Epoch returns the replication epoch this node is currently at.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// Open boots a server in the only valid order: New's legality proof,
// OpenJournal's recovery and committer, the replication role (a
// primary's fan-out listener, or a replica's streaming loop), then the
// client listener. If a step fails, Open closes what earlier steps
// started.
func Open(o Options) (*Server, error) {
	if (o.ReplAddr != "" || o.ReplicaOf != "") && o.Journal == "" {
		return nil, errors.New("server: replication requires a journal")
	}
	if o.ReplAddr != "" && o.ReplicaOf != "" {
		return nil, errors.New("server: ReplAddr and ReplicaOf are mutually exclusive")
	}
	s, err := New(o.Schema, o.Name, o.Instance)
	if err != nil {
		return nil, err
	}
	if o.FS == nil {
		o.FS = vfs.OS{}
	}
	o.Instance = nil // s.dir owns it; recovery may replace it, so do not pin it
	s.opts = o
	if err := s.boot(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func (s *Server) boot() error {
	if s.opts.Journal != "" {
		if err := s.OpenJournal(s.opts.Journal); err != nil {
			return err
		}
	}
	if s.opts.ReplAddr != "" {
		if _, err := s.ListenRepl(s.opts.ReplAddr); err != nil {
			return err
		}
	}
	if s.opts.ReplicaOf != "" {
		s.startReplica()
	}
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound address of the client listener Open started.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// MetricsSnapshot returns a JSON-marshalable snapshot of the server's
// metrics, shaped for expvar.Publish(expvar.Func(srv.MetricsSnapshot)).
func (s *Server) MetricsSnapshot() any {
	rs := s.replMetrics()
	s.mu.RLock()
	journalOn := s.journal != nil
	readOnly := s.readOnly
	s.mu.RUnlock()
	return s.metrics.snapshot(journalOn, readOnly, rs)
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.ErrorLog != nil {
		s.opts.ErrorLog.Printf(format, args...)
	}
}

func (s *Server) drainTimeout() time.Duration {
	if s.opts.Limits.DrainTimeout > 0 {
		return s.opts.Limits.DrainTimeout
	}
	return time.Second
}

// Close stops the listener and drains in-flight sessions: each gets up to
// DrainTimeout to finish its current line, then remaining connections are
// force-closed. Always returns within roughly DrainTimeout.
func (s *Server) Close() error {
	s.closeOnce.Do(func() { close(s.closed) })
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	// Tear replication down before the drain: the hub releases any
	// semi-sync gates and closes replica connections (whose handler
	// goroutines are in s.wg), and a replica's streaming loop stops.
	s.stopReplication()
	drain := s.drainTimeout()
	deadline := time.Now().Add(drain)
	s.connsMu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(deadline)
	}
	s.connsMu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drain + 100*time.Millisecond):
		// Backstop for sessions that re-armed their own deadline in the
		// race with the loop above: closing the conn unblocks any read.
		s.connsMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connsMu.Unlock()
		<-done
	}
	s.mu.Lock()
	j := s.journal
	c := s.committer
	s.mu.Unlock()
	if c != nil {
		// Sessions have drained, so nothing new can stage; the committer
		// flushes any leftover batch before dying, keeping the "OK means
		// on disk" ledger complete through shutdown.
		c.stop()
	}
	if j != nil {
		if jerr := j.f.Close(); err == nil {
			err = jerr
		}
	}
	return err
}

// nextAcceptDelay implements capped exponential backoff for transient
// Accept errors, as in net/http.Server.Serve: 5ms doubling up to 1s.
func nextAcceptDelay(d time.Duration) time.Duration {
	if d == 0 {
		return 5 * time.Millisecond
	}
	d *= 2
	if d > maxAcceptBackoff {
		d = maxAcceptBackoff
	}
	return d
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var sem chan struct{} // MaxConns slots; nil when uncapped
	if n := s.opts.Limits.MaxConns; n > 0 {
		sem = make(chan struct{}, n)
	}
	var delay time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			// Transient failure (e.g. EMFILE): back off instead of
			// busy-looping on a hot error.
			delay = nextAcceptDelay(delay)
			s.metrics.AcceptRetries.Add(1)
			s.logf("server: accept: %v; retrying in %v", err, delay)
			select {
			case <-time.After(delay):
			case <-s.closed:
				return
			}
			continue
		}
		delay = 0
		if sem != nil {
			select {
			case sem <- struct{}{}:
			default:
				// At MaxConns: hold this accepted conn until a session
				// ends. Further clients queue in the kernel backlog — the
				// limit backpressures instead of shedding.
				s.metrics.ConnsThrottled.Add(1)
				select {
				case sem <- struct{}{}:
				case <-s.closed:
					conn.Close()
					return
				}
			}
		}
		s.metrics.ConnsTotal.Add(1)
		s.metrics.ConnsActive.Add(1)
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
				s.metrics.ConnsActive.Add(-1)
				if sem != nil {
					<-sem
				}
			}()
			s.serve(conn)
		}()
	}
}

// deadlineConn arms the configured read deadlines around every Read:
// ReadTimeout bounds the single syscall, lineBy (set per line by the
// serve loop) is the idle deadline, and a closing server imposes the
// drain deadline. Only the session goroutine touches lineBy/armed.
type deadlineConn struct {
	net.Conn
	srv    *Server
	lineBy time.Time
	armed  bool
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	var dl time.Time
	if rt := c.srv.opts.Limits.ReadTimeout; rt > 0 {
		dl = time.Now().Add(rt)
	}
	if !c.lineBy.IsZero() && (dl.IsZero() || c.lineBy.Before(dl)) {
		dl = c.lineBy
	}
	select {
	case <-c.srv.closed:
		if d := time.Now().Add(c.srv.drainTimeout()); dl.IsZero() || d.Before(dl) {
			dl = d
		}
	default:
	}
	if !dl.IsZero() || c.armed {
		c.Conn.SetReadDeadline(dl)
		c.armed = !dl.IsZero()
	}
	return c.Conn.Read(p)
}

type session struct {
	srv *Server
	w   *proto.Writer    // w.Term is the terminator of the line being handled
	tx  *txn.Transaction // non-nil inside BEGIN..COMMIT
	// cmd is the command label of the line being handled, for the
	// metrics layer.
	cmd string
	// pending is the entry currently being assembled by ADD lines.
	pendingDN      string
	pendingClasses []string
	pendingAttrs   map[string][]dirtree.Value
	// txOps and txBytes are what the open transaction holds, against
	// proto.MaxTxOps and proto.MaxTxBytes.
	txOps, txBytes int
}

func (s *Server) serve(conn net.Conn) {
	dc := &deadlineConn{Conn: conn, srv: s}
	sc := proto.NewScanner(dc)
	sess := &session{srv: s, w: proto.NewWriter(conn)}
	defer sess.abort() // releases the tx gauge if the session dies mid-transaction
	for {
		select {
		case <-s.closed:
			sess.w.Err("server " + proto.ShuttingDown)
			sess.w.Flush()
			return
		default:
		}
		if it := s.opts.Limits.IdleTimeout; it > 0 {
			dc.lineBy = time.Now().Add(it)
		}
		if !sc.Scan() {
			break
		}
		start := time.Now()
		sess.cmd, sess.w.Term = "", ""
		quit := sess.handle(sc.Text())
		if sess.cmd != "" {
			s.metrics.observeCommand(sess.cmd, time.Since(start), sess.w.Term == "ERR")
		}
		sess.w.Flush()
		if quit {
			return
		}
	}
	// The scan stopped without a QUIT: report why instead of vanishing.
	switch err := sc.Err(); {
	case err == nil:
		// clean EOF — the client went away
	case errors.Is(err, bufio.ErrTooLong):
		s.metrics.LinesTooLong.Add(1)
		proto.RefuseTooLong(sess.w, conn)
	case isTimeout(err):
		select {
		case <-s.closed:
			// drain deadline during shutdown, not a client fault
			sess.w.Err("server " + proto.ShuttingDown)
		default:
			s.metrics.IdleTimeouts.Add(1)
			sess.w.Err(proto.IdleTimeout)
		}
	default:
		s.metrics.ScanErrors.Add(1)
		s.logf("server: session %s: read: %v", conn.RemoteAddr(), err)
	}
	sess.w.Flush()
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func (se *session) illegal(r *core.Report) {
	for _, v := range r.Violations {
		se.w.Comment(v.String())
	}
	se.w.Illegal()
}

// handle processes one protocol line; it returns true on QUIT.
func (se *session) handle(line string) bool {
	trimmed := strings.TrimSpace(line)
	if se.tx != nil {
		se.handleTx(trimmed)
		return false
	}
	cmd, rest := proto.Split(trimmed)
	se.cmd = cmd
	switch cmd {
	case "":
		// ignore blank lines between commands
	case "QUIT":
		se.w.OK()
		return true
	case "SEARCH":
		se.search(rest)
	case "QUERY":
		se.query(rest)
	case "GET":
		se.get(rest)
	case "BEGIN":
		if hint := se.srv.writeRedirect(); hint != "" {
			se.w.Err(hint)
			break
		}
		se.tx = &txn.Transaction{}
		se.srv.metrics.TxActive.Add(1)
		se.w.OK()
	case "CHECK":
		se.check()
	case "CONSISTENT":
		se.consistent()
	case "SCHEMA":
		se.w.Line(strings.Split(strings.TrimRight(schemadsl.Format(se.srv.opts.Schema, se.srv.opts.Name), "\n"), "\n")...)
		se.w.OK()
	case "STAT":
		se.stat()
	case "COUNT":
		se.count(rest)
	case "METRICS":
		se.metricsCmd()
	case "SNAPSHOT":
		se.snapshotCmd()
	case "VERIFY":
		se.verifyCmd()
	case "PROMOTE":
		se.promoteCmd()
	default:
		se.cmd = "UNKNOWN"
		se.w.Err(proto.UnknownCommand(cmd))
	}
	return false
}

// handleTx processes one line inside BEGIN..COMMIT; a refused line
// drops the transaction.
func (se *session) handleTx(line string) {
	l, err := proto.ParseTxLine(line, se.pendingDN != "", se.txOps, se.txBytes)
	se.cmd = l.Cmd
	se.txBytes += len(line)
	if l.Cmd != "" {
		se.flushPending()
		se.txOps++
	}
	switch {
	case err != nil:
	case l.Cmd == "ADD":
		se.pendingDN, se.pendingClasses, se.pendingAttrs = l.DN, nil, make(map[string][]dirtree.Value)
	case l.Cmd == "DELETE":
		se.tx.Delete(l.DN)
	case l.Cmd == "MOVE":
		se.tx.Move(l.DN, l.Dest)
	case l.Cmd == "COMMIT":
		se.commit()
	case l.Cmd == "ABORT":
		se.abort()
		se.w.OK()
	case l.Attr && l.Name == dirtree.AttrObjectClass:
		se.pendingClasses = append(se.pendingClasses, l.Value)
	case l.Attr:
		var v dirtree.Value
		if v, err = dirtree.ParseValue(se.srv.opts.Schema.Registry.Type(l.Name), l.Value); err == nil {
			se.pendingAttrs[l.Name] = append(se.pendingAttrs[l.Name], v)
		}
	}
	if err != nil {
		se.w.Err(err.Error())
		se.abort()
	}
}

func (se *session) flushPending() {
	if se.pendingDN == "" {
		return
	}
	se.tx.Add(se.pendingDN, se.pendingClasses, se.pendingAttrs)
	se.pendingDN, se.pendingClasses, se.pendingAttrs = "", nil, nil
}

// abort ends the in-progress transaction and releases the TxActive
// gauge. Every way out of BEGIN..COMMIT must route here: the ABORT
// command, protocol errors inside handleTx, COMMIT (which takes the tx
// then aborts the session state), and serve's deferred call — which
// covers abrupt disconnects, read errors and idle timeouts, so the
// gauge cannot drift when a client vanishes mid-transaction. abort is
// idempotent (tx already nil) and never double-decrements.
func (se *session) abort() {
	if se.tx != nil {
		se.srv.metrics.TxActive.Add(-1)
	}
	se.tx = nil
	se.pendingDN, se.pendingClasses, se.pendingAttrs = "", nil, nil
	se.txOps, se.txBytes = 0, 0
}

func (se *session) commit() {
	tx := se.tx
	se.abort()
	report, err := se.srv.CommitTx(tx)
	if err != nil {
		se.w.Err(err.Error())
		return
	}
	if !report.Legal() {
		se.illegal(report)
		return
	}
	se.w.OK()
}

// CommitTx applies tx and makes it durable — the exact path a session's
// COMMIT takes, exposed for callers that commit without a protocol
// session (the crash-matrix and replication tests, bench/layers.go's
// commit layer). On success the returned report is legal; a report
// with violations means the transaction was rejected and nothing
// changed; an error covers apply failures and "commit not durable".
// Metrics are updated here, so session and non-session commits are
// counted identically.
func (s *Server) CommitTx(tx *txn.Transaction) (*core.Report, error) {
	if hint := s.writeRedirect(); hint != "" {
		s.metrics.TxErrors.Add(1)
		return nil, errors.New(hint)
	}
	s.mu.Lock()
	if s.readOnly != "" {
		reason := s.readOnly
		s.mu.Unlock()
		s.metrics.TxErrors.Add(1)
		return nil, errors.New("server is " + proto.ReadOnly + ": " + reason)
	}
	report, undo, err := s.applier.ApplyWithUndo(s.dir, tx)
	if err != nil || !report.Legal() {
		s.mu.Unlock()
		if err != nil {
			s.metrics.TxErrors.Add(1)
			return nil, err
		}
		s.metrics.TxIllegal.Add(1)
		s.metrics.noteViolations(report)
		return report, nil
	}
	if s.journal == nil {
		s.mu.Unlock()
		s.metrics.TxCommitted.Add(1)
		return report, nil
	}
	// Encode the journal record and assign its sequence number while the
	// apply's write lock is still held (journal order = apply order), then
	// release the lock and let the committer batch the fsync. Readers and
	// other writers proceed while the disk works.
	var buf bytes.Buffer
	if werr := tx.WriteChanges(&buf); werr != nil {
		if uerr := undo(); uerr != nil {
			s.degrade(fmt.Sprintf("in-memory state diverged after failed journal encode: %v (rollback: %v)", werr, uerr))
		}
		s.mu.Unlock()
		s.metrics.TxErrors.Add(1)
		return nil, fmt.Errorf("%s: %v", proto.NotDurable, werr)
	}
	seq := s.commitSeq + 1
	// The checksummed marker terminates the transaction for atomic replay;
	// it covers exactly the payload bytes written so far.
	buf.WriteString(repl.MarkerLine(seq, buf.Bytes(), s.epoch.Load()))
	// OK only after the batch fsync: the durability contract is unchanged.
	if jerr := s.stage(seq, buf.Bytes(), undo); jerr != nil {
		s.metrics.TxErrors.Add(1)
		return nil, fmt.Errorf("%s: %v", proto.NotDurable, jerr)
	}
	s.metrics.TxCommitted.Add(1)
	return report, nil
}

// Deprecated: use proto.SearchArgs.
type SearchArgs = proto.SearchArgs

// Deprecated: use proto.ParseSearchArgs.
var ParseSearchArgs = proto.ParseSearchArgs

func (se *session) search(rest string) {
	args, err := proto.ParseSearchArgs(rest)
	if err != nil {
		se.w.Err(err.Error())
		return
	}
	f, err := filter.Parse(args.Filter)
	if err != nil {
		se.w.Err(err.Error())
		return
	}
	limit := args.Limit
	se.srv.mu.RLock()
	defer se.srv.mu.RUnlock()
	view := se.srv.dir.All()
	if args.HasBase {
		e := se.srv.dir.ByDN(args.Base)
		if e == nil {
			se.w.Err(fmt.Sprintf("base %q not found", args.Base))
			return
		}
		view = se.srv.dir.SubtreeView(e)
	}
	matches, plan := hquery.EvalSelect(f, view)
	if plan.Strategy == "scan" {
		se.srv.metrics.SearchScanned.Add(1)
	} else {
		se.srv.metrics.SearchIndexed.Add(1)
	}
	for i, e := range matches {
		if limit >= 0 && i >= limit {
			break
		}
		se.w.Line(e.DN())
	}
	se.w.OK()
}

func (se *session) query(rest string) {
	q, err := hquery.Parse(strings.TrimSpace(rest))
	if err != nil {
		se.w.Err(err.Error())
		return
	}
	se.srv.mu.RLock()
	defer se.srv.mu.RUnlock()
	for _, e := range hquery.Eval(q, hquery.NewBinding(se.srv.dir)) {
		se.w.Line(e.DN())
	}
	se.w.OK()
}

func (se *session) get(rest string) {
	dn := strings.TrimSpace(rest)
	se.srv.mu.RLock()
	defer se.srv.mu.RUnlock()
	e := se.srv.dir.ByDN(dn)
	if e == nil {
		se.w.Err(fmt.Sprintf("%s %q", proto.NoEntry, dn))
		return
	}
	se.w.Line("dn: " + e.DN())
	for _, name := range e.AttrNames() {
		for _, v := range e.Attr(name) {
			se.w.Line(name + ": " + v.String())
		}
	}
	se.w.OK()
}

func (se *session) check() {
	se.srv.mu.RLock()
	report := se.srv.checker.Check(se.srv.dir)
	se.srv.mu.RUnlock()
	if !report.Legal() {
		se.srv.metrics.noteViolations(report)
		se.illegal(report)
		return
	}
	se.w.OK()
}

func (se *session) consistent() {
	res := core.CheckConsistency(se.srv.opts.Schema)
	se.w.Line(fmt.Sprintf("consistent: %v facts: %d", res.Consistent, res.Facts))
	if res.Consistent {
		se.w.OK()
	} else {
		se.w.Illegal()
	}
}

func (se *session) stat() {
	role := se.srv.roleString()
	se.srv.mu.RLock()
	defer se.srv.mu.RUnlock()
	se.w.Line("role: " + role)
	if role == "read-only degraded" {
		se.w.Line(role + ": " + se.srv.readOnly)
	}
	se.w.Line(fmt.Sprintf("epoch: %d", se.srv.epoch.Load()))
	if se.srv.opts.ShardName != "" {
		se.w.Line("shard: " + se.srv.opts.ShardName)
		for _, r := range se.srv.opts.ShardRoots {
			se.w.Line("shard root: " + r)
		}
	}
	se.w.Line(fmt.Sprintf("entries: %d", se.srv.dir.Len()))
	names := se.srv.dir.ClassNames()
	sort.Strings(names)
	for _, c := range names {
		se.w.Line(fmt.Sprintf("class %s: %d", c, se.srv.dir.ClassCount(c)))
	}
	se.w.OK()
}

func (se *session) metricsCmd() {
	s := se.srv
	rs := s.replMetrics()
	s.mu.RLock()
	journalOn := s.journal != nil
	readOnly := s.readOnly
	s.mu.RUnlock()
	if s.opts.ShardName != "" {
		se.w.Line(fmt.Sprintf("shard: name=%s roots=%d", s.opts.ShardName, len(s.opts.ShardRoots)))
	}
	se.w.Line(s.metrics.lines(journalOn, readOnly, rs)...)
	se.w.OK()
}

func (se *session) promoteCmd() {
	lines, err := se.srv.Promote()
	for _, l := range lines {
		se.w.Comment(l)
	}
	if err != nil {
		se.w.Err(err.Error())
		return
	}
	se.w.Comment("promoted: now primary")
	se.w.OK()
}

func (se *session) snapshotCmd() {
	s := se.srv
	if err := s.Rotate(); err != nil {
		se.w.Err(err.Error())
		return
	}
	s.mu.RLock()
	snapPath := s.journal.snapPath
	s.mu.RUnlock()
	se.w.Comment("journal compacted to " + snapPath)
	se.w.OK()
}

// verifyCmd is the online fsck: it re-scans the on-disk journal against
// its checksums and sequence numbers and runs the full legality checker
// over the served instance, reporting both — at a quiescent point, so
// no journal append is in flight.
func (se *session) verifyCmd() {
	var lines []string
	err := se.srv.atQuiescent(func() (verr error) {
		lines, verr = se.srv.verifyNow()
		return verr
	})
	for _, l := range lines {
		se.w.Comment(l)
	}
	if err != nil {
		se.w.Err(err.Error())
		return
	}
	se.w.OK()
}

// Snapshot writes the current instance as LDIF, for persistence.
func (s *Server) Snapshot(w *bufio.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return ldif.WriteDirectory(w, s.dir)
}
