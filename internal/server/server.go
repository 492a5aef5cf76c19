// Package server implements a small directory server that enforces a
// bounding-schema on every update — the deployment the paper targets: an
// LDAP-style store whose instances stay legal by construction.
//
// The protocol is line-oriented text over TCP (LDAP's ASN.1 framing is
// out of scope; the operations mirror LDAP's):
//
//	SEARCH <filter> [base=<dn>] [limit=N]
//	                                matching DNs, one per line, at most N
//	                                with limit=N (default unlimited). The
//	                                base DN is everything after "base="
//	                                up to the optional trailing limit
//	                                token — DNs may contain spaces. The
//	                                filter runs through the cost-based
//	                                hquery planner: typed atoms are
//	                                answered from the attribute-value
//	                                indexes when cheaper than a scan.
//	QUERY <hierarchical query>      DNs matched by an hquery expression
//	GET <dn>                        the entry as LDIF attribute lines
//	BEGIN ... ADD/DELETE/MOVE ... COMMIT an update transaction (LDIF-ish;
//	                                MOVE <dn> -> <dest> relocates a
//	                                subtree, "MOVE <dn> ->" to the root)
//	CHECK                           full legality report
//	CONSISTENT                      schema consistency verdict
//	SCHEMA                          the schema in the definition language
//	STAT                            entry and class counts
//	METRICS                         counters, latency histograms, gauges
//	SNAPSHOT                        force journal compaction
//	VERIFY                          re-scan the journal checksums and run
//	                                the full legality check, online
//	QUIT
//
// Every response is terminated by a line reading "OK", "ILLEGAL" or
// "ERR <message>". Transactions are applied atomically with the Figure 5
// incremental checks; a violating COMMIT leaves the directory unchanged
// and reports the violations.
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
	"io"
	"log"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/filter"
	"boundschema/internal/hquery"
	"boundschema/internal/ldif"
	"boundschema/internal/repl"
	"boundschema/internal/schemadsl"
	"boundschema/internal/txn"
	"boundschema/internal/vfs"
)

// maxLineBytes caps one protocol line; longer lines fail the session with
// "ERR line too long" instead of silently dropping it.
const maxLineBytes = 1024 * 1024

// maxAcceptBackoff caps the exponential backoff acceptLoop applies after
// transient Accept errors (e.g. EMFILE), mirroring net/http.Server.Serve.
const maxAcceptBackoff = time.Second

// Limits configures the connection lifecycle. The zero value means "no
// limits" (and a 1 s default drain on Close). Set before Listen.
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

// Server serves one directory instance guarded by one bounding-schema.
type Server struct {
	schema  *core.Schema
	name    string
	applier *txn.Applier
	// replApplier applies replicated segments without re-proving
	// legality (txn.NewTrustedApplier): the primary proved them before
	// acknowledging. Neither applier keeps state of its own, so any
	// directory installed under s.mu is checked correctly from its first
	// COMMIT.
	replApplier *txn.Applier
	checker     *core.Checker

	// mu guards dir, journal state and readOnly. Writers (COMMIT, journal
	// replay) mutate under the write lock and must leave the interval
	// encoding current before unlocking, so reader sessions under the read
	// lock never trigger the lazy re-encode — the read paths are only
	// concurrency-safe while dirtree's Directory.Encoded() holds.
	mu  sync.RWMutex
	dir *dirtree.Directory

	ln        net.Listener
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	limits  Limits
	sem     chan struct{} // MaxConns slots; nil when uncapped
	connsMu sync.Mutex
	conns   map[net.Conn]struct{}

	metrics  *Metrics
	errorLog *log.Logger

	// fs is the file system behind every durability path (journal,
	// snapshot, quarantine). vfs.OS{} in production; tests swap in a
	// vfs.Fault to script crashes and I/O faults.
	fs vfs.FS

	journal     *journal // nil when journaling is off
	rotateBytes int64    // journal rotation threshold; 0 = never
	readOnly    string   // non-empty reason = refuse COMMIT/SNAPSHOT

	// committer (see groupcommit.go) is non-nil on a journaled primary —
	// replicas append inline, journal-less servers have nothing to sync;
	// commitSeq orders records (assigned under mu).
	committer *committer
	commitSeq uint64

	// Replication (see repl.go). role flips from primary (the zero
	// value) to replica in StartReplica and back in Promote. replHub is
	// non-nil once ListenRepl started the primary's fan-out; replMode
	// and replAckTO configure it. primaryAddr, promoteCh, replicaDone
	// and replConn belong to a replica's streaming loop; primarySeq and
	// replApplied feed the lag gauge.
	role        atomic.Int32
	replHub     atomic.Pointer[repl.Hub]
	replLn      net.Listener
	replMode    repl.Mode
	replAckTO   time.Duration
	primaryAddr string
	// primaryClientAddr is the primary's CLIENT protocol address, when
	// known. primaryAddr is the replication listener a replica streams
	// from — advertising it to redirected writers would point them at a
	// port that does not speak the client protocol (found by the load
	// harness following redirects during failover).
	primaryClientAddr atomic.Pointer[string]
	promoteMu         sync.Mutex
	promoteCh         chan struct{}
	replicaDone       chan struct{}
	replConnMu        sync.Mutex
	replConn          net.Conn
	primarySeq        atomic.Uint64
	replApplied       atomic.Int64

	// epoch is the replication epoch this node last adopted: 1 from New,
	// recovered from the journal/snapshot headers by OpenJournal, bumped
	// (and persisted via rotation) by Promote, adopted from the wire by a
	// bootstrap. A primary that observes a higher epoch fences itself
	// read-only (see fence in repl.go).
	epoch atomic.Uint64

	// shardName/shardRoots label this node as one shard of a routed
	// deployment (cmd/bsrouter): STAT and METRICS report them so an
	// operator inspecting a node can tell which subtrees it owns. Purely
	// informational — the server enforces nothing about the roots.
	shardName  string
	shardRoots []string

	// dialer replaces net.DialTimeout for the replica's connection to
	// the primary; replListenWrap wraps the replication listener. Both
	// exist so tests can thread internal/netfault through the transport.
	// Set before StartReplica / ListenRepl; nil means the real network.
	dialer         func(addr string, timeout time.Duration) (net.Conn, error)
	replListenWrap func(net.Listener) net.Listener
}

// New creates a server over the given schema and initial instance. The
// instance must be legal; New refuses otherwise so the invariant "the
// served directory is always legal" holds from the start.
func New(schema *core.Schema, name string, dir *dirtree.Directory) (*Server, error) {
	checker := core.NewChecker(schema)
	if r := checker.Check(dir); !r.Legal() {
		return nil, fmt.Errorf("server: initial instance is illegal:\n%s", r)
	}
	s := &Server{
		schema:      schema,
		name:        name,
		applier:     txn.NewApplier(schema),
		replApplier: txn.NewTrustedApplier(schema),
		checker:     checker,
		dir:         dir,
		closed:      make(chan struct{}),
		conns:       make(map[net.Conn]struct{}),
		metrics:     newMetrics(),
		fs:          vfs.OS{},
	}
	checker.OnTiming = s.metrics.noteCheckTiming
	s.epoch.Store(1)
	return s, nil
}

// Epoch returns the replication epoch this node is currently at.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// SetDialer replaces the dialer the replica loop uses to reach the
// primary — the hook tests use to thread a netfault.Fault through the
// replication transport. Call before StartReplica; nil restores the
// real network.
func (s *Server) SetDialer(d func(addr string, timeout time.Duration) (net.Conn, error)) {
	s.dialer = d
}

// SetReplListenerWrap wraps the replication listener (and so every
// accepted replica connection). Call before ListenRepl.
func (s *Server) SetReplListenerWrap(w func(net.Listener) net.Listener) {
	s.replListenWrap = w
}

// SetShardInfo labels this node as the named shard of a routed
// deployment owning the given subtree roots. STAT gains "shard:" and
// "shard root:" lines and METRICS a shard line. Call before Listen.
func (s *Server) SetShardInfo(name string, roots []string) {
	s.shardName = name
	s.shardRoots = append([]string(nil), roots...)
}

// SetLimits installs the connection lifecycle limits. Call before Listen.
func (s *Server) SetLimits(l Limits) {
	s.limits = l
	if l.MaxConns > 0 {
		s.sem = make(chan struct{}, l.MaxConns)
	} else {
		s.sem = nil
	}
}

// SetErrorLog installs a logger for operational events (accept retries,
// session read errors, journal degradation). nil (the default) discards.
func (s *Server) SetErrorLog(l *log.Logger) { s.errorLog = l }

// SetJournalRotation sets the journal size threshold in bytes beyond
// which a successful COMMIT triggers compaction (snapshot + truncate; see
// journal.go). 0 disables rotation. Call before OpenJournal.
func (s *Server) SetJournalRotation(bytes int64) { s.rotateBytes = bytes }

// SetFS replaces the file system behind the durability paths (default
// vfs.OS{}). Tests install a vfs.Fault to inject crashes, torn writes
// and corruption. Call before OpenJournal.
func (s *Server) SetFS(fs vfs.FS) { s.fs = fs }

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
	if s.errorLog != nil {
		s.errorLog.Printf(format, args...)
	}
}

func (s *Server) drainTimeout() time.Duration {
	if s.limits.DrainTimeout > 0 {
		return s.limits.DrainTimeout
	}
	return time.Second
}

// Listen starts accepting connections on addr ("127.0.0.1:0" picks a
// free port) and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
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
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
			default:
				// At MaxConns: hold this accepted conn until a session
				// ends. Further clients queue in the kernel backlog — the
				// limit backpressures instead of shedding.
				s.metrics.ConnsThrottled.Add(1)
				select {
				case s.sem <- struct{}{}:
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
				if s.sem != nil {
					<-s.sem
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
	if rt := c.srv.limits.ReadTimeout; rt > 0 {
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
	w   *bufio.Writer
	tx  *txn.Transaction // non-nil inside BEGIN..COMMIT
	// cmd and term record the command label and terminator of the line
	// being handled, for the metrics layer.
	cmd  string
	term string
	// pending is the entry currently being assembled by ADD lines.
	pendingDN      string
	pendingClasses []string
	pendingAttrs   map[string][]dirtree.Value
}

func (s *Server) serve(conn net.Conn) {
	dc := &deadlineConn{Conn: conn, srv: s}
	sc := bufio.NewScanner(dc)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	sess := &session{srv: s, w: bufio.NewWriter(conn)}
	defer sess.abort() // releases the tx gauge if the session dies mid-transaction
	for {
		select {
		case <-s.closed:
			sess.err("server shutting down")
			sess.w.Flush()
			return
		default:
		}
		if it := s.limits.IdleTimeout; it > 0 {
			dc.lineBy = time.Now().Add(it)
		}
		if !sc.Scan() {
			break
		}
		line := strings.TrimRight(sc.Text(), "\r")
		start := time.Now()
		sess.cmd, sess.term = "", ""
		quit := sess.handle(line)
		if sess.cmd != "" {
			s.metrics.observeCommand(sess.cmd, time.Since(start), sess.term == "ERR")
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
		sess.err(fmt.Sprintf("line too long (max %d bytes)", maxLineBytes))
		sess.w.Flush()
		// Linger briefly to drain the rest of the oversized line, so the
		// error reply is not destroyed by a TCP reset carrying unread data
		// (the same trick net/http uses for unread request bodies).
		conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		io.Copy(io.Discard, conn)
	case isTimeout(err):
		select {
		case <-s.closed:
			// drain deadline during shutdown, not a client fault
			sess.err("server shutting down")
		default:
			s.metrics.IdleTimeouts.Add(1)
			sess.err("idle timeout")
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

func (se *session) reply(lines ...string) {
	for _, l := range lines {
		se.w.WriteString(l)
		se.w.WriteByte('\n')
	}
}

func (se *session) ok() {
	se.term = "OK"
	se.reply("OK")
}

func (se *session) err(msg string) {
	se.term = "ERR"
	se.reply("ERR " + strings.ReplaceAll(msg, "\n", " | "))
}

func (se *session) illegal(r *core.Report) {
	se.term = "ILLEGAL"
	for _, v := range r.Violations {
		se.reply("# " + v.String())
	}
	se.reply("ILLEGAL")
}

// handle processes one protocol line; it returns true on QUIT.
func (se *session) handle(line string) bool {
	trimmed := strings.TrimSpace(line)
	if se.tx != nil {
		return se.handleTx(trimmed)
	}
	cmd, rest := splitCommand(trimmed)
	se.cmd = cmd
	switch cmd {
	case "":
		// ignore blank lines between commands
	case "QUIT":
		se.ok()
		return true
	case "SEARCH":
		se.search(rest)
	case "QUERY":
		se.query(rest)
	case "GET":
		se.get(rest)
	case "BEGIN":
		if hint := se.srv.writeRedirect(); hint != "" {
			se.err(hint)
			break
		}
		se.tx = &txn.Transaction{}
		se.srv.metrics.TxActive.Add(1)
		se.ok()
	case "CHECK":
		se.check()
	case "CONSISTENT":
		se.consistent()
	case "SCHEMA":
		se.reply(strings.Split(strings.TrimRight(schemadsl.Format(se.srv.schema, se.srv.name), "\n"), "\n")...)
		se.ok()
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
		se.err(fmt.Sprintf("unknown command %q", cmd))
	}
	return false
}

// handleTx processes lines inside BEGIN..COMMIT.
func (se *session) handleTx(line string) bool {
	cmd, rest := splitCommand(line)
	switch cmd {
	case "ADD":
		se.cmd = cmd
		se.flushPending()
		dn := strings.TrimSpace(rest)
		if dn == "" {
			se.err("ADD needs a DN")
			se.abort()
			return false
		}
		se.pendingDN = dn
		se.pendingClasses = nil
		se.pendingAttrs = make(map[string][]dirtree.Value)
	case "DELETE":
		se.cmd = cmd
		se.flushPending()
		se.tx.Delete(strings.TrimSpace(rest))
	case "MOVE":
		se.cmd = cmd
		se.flushPending()
		// "MOVE <dn> -> <dest>": splitting on a space would mangle any DN
		// containing one, so the protocol uses an explicit arrow separator.
		// "MOVE <dn> ->" (empty destination) moves to the forest root.
		dn, dest, ok := strings.Cut(strings.TrimSpace(rest), " -> ")
		if !ok {
			if d, rootOK := strings.CutSuffix(strings.TrimSpace(rest), " ->"); rootOK {
				dn, dest, ok = d, "", true
			}
		}
		if !ok {
			se.err(`MOVE needs "<dn> -> <dest>" ("<dn> ->" moves to the forest root)`)
			se.abort()
			return false
		}
		se.tx.Move(strings.TrimSpace(dn), strings.TrimSpace(dest))
	case "COMMIT":
		se.cmd = cmd
		se.flushPending()
		se.commit()
	case "ABORT":
		se.cmd = cmd
		se.abort()
		se.ok()
	case "":
		// blank line inside a transaction is a no-op
	default:
		// attribute line "name: value" for the pending ADD
		if se.pendingDN == "" {
			se.err(fmt.Sprintf("unexpected %q inside transaction", line))
			se.abort()
			return false
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			se.err(fmt.Sprintf("malformed attribute line %q", line))
			se.abort()
			return false
		}
		name = strings.TrimSpace(name)
		value = strings.TrimSpace(value)
		if name == dirtree.AttrObjectClass {
			se.pendingClasses = append(se.pendingClasses, value)
			return false
		}
		v, err := dirtree.ParseValue(se.srv.schema.Registry.Type(name), value)
		if err != nil {
			se.err(err.Error())
			se.abort()
			return false
		}
		se.pendingAttrs[name] = append(se.pendingAttrs[name], v)
	}
	return false
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
}

func (se *session) commit() {
	tx := se.tx
	se.abort()
	report, err := se.srv.CommitTx(tx)
	if err != nil {
		se.err(err.Error())
		return
	}
	if !report.Legal() {
		se.illegal(report)
		return
	}
	se.ok()
}

// CommitTx applies tx and makes it durable — the exact path a session's
// COMMIT takes, exposed for callers that commit without a protocol
// session (the crash-matrix harness, bsbench drivers). On success the
// returned report is legal; a report with violations means the
// transaction was rejected and nothing changed; an error covers apply
// failures and "commit not durable". Metrics are updated here, so
// session and non-session commits are counted identically.
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
		return nil, errors.New("server is read-only: " + reason)
	}
	report, undo, err := s.applier.ApplyWithUndo(s.dir, tx)
	// Re-encode before releasing the write lock: reader sessions (CHECK,
	// SEARCH, QUERY) run under the read lock and rely on the encoding
	// being current, so the lazy re-encode must never fire concurrently
	// under RLock (dirtree.Directory is read-only while Encoded).
	s.dir.EnsureEncoded()
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
			s.readOnly = fmt.Sprintf("in-memory state diverged after failed journal encode: %v (rollback: %v)", werr, uerr)
			s.logf("server: %s", s.readOnly)
		}
		s.dir.EnsureEncoded()
		s.mu.Unlock()
		s.metrics.TxErrors.Add(1)
		return nil, fmt.Errorf("commit not durable: %v", werr)
	}
	seq := s.commitSeq + 1
	// The checksummed marker terminates the transaction for atomic replay;
	// it covers exactly the payload bytes written so far.
	buf.WriteString(repl.MarkerLine(seq, buf.Bytes(), s.epoch.Load()))
	s.commitSeq = seq
	req := &commitReq{seq: seq, data: buf.Bytes(), undo: undo, done: make(chan error, 1)}
	s.committer.stage(req)
	s.mu.Unlock()
	// OK only after the batch fsync: the durability contract is unchanged.
	if jerr := <-req.done; jerr != nil {
		s.metrics.TxErrors.Add(1)
		return nil, fmt.Errorf("commit not durable: %v", jerr)
	}
	s.metrics.TxCommitted.Add(1)
	return report, nil
}

const searchUsage = "(usage: SEARCH <filter> [base=<dn>] [limit=N])"

// SearchArgs is the parsed tail of a SEARCH command line. Exported so
// the shard router (internal/shard) parses routing targets — the base
// DN decides the owning shard — with exactly the server's grammar.
type SearchArgs struct {
	Filter  string // balanced-parenthesis filter text, unparsed
	Base    string // base DN; meaningful only when HasBase
	HasBase bool
	Limit   int // -1 = unlimited
}

// ParseSearchArgs splits "(filter) [base=<dn>] [limit=N]". The base DN
// is everything after "base=" — DNs contain spaces (ou=Human
// Resources,o=acme), so the tail must not be re-tokenized. The optional
// limit is the final space-separated token, peeled off before the base
// is read. Anything else trailing the filter is an error, not silently
// ignored.
func ParseSearchArgs(rest string) (SearchArgs, error) {
	a := SearchArgs{Limit: -1}
	ftext, tail, err := cutBalanced(strings.TrimSpace(rest))
	if err != nil {
		return a, err
	}
	a.Filter = ftext
	tail = strings.TrimSpace(tail)
	last := tail
	if i := strings.LastIndexByte(tail, ' '); i >= 0 {
		last = tail[i+1:]
	}
	if digits, isLimit := strings.CutPrefix(last, "limit="); isLimit {
		n, lerr := strconv.Atoi(digits)
		if lerr != nil || n < 0 || strings.TrimLeft(digits, "0123456789") != "" {
			return a, fmt.Errorf("malformed %q %s", last, searchUsage)
		}
		a.Limit = n
		tail = strings.TrimSpace(tail[:len(tail)-len(last)])
	}
	a.Base, a.HasBase = strings.CutPrefix(tail, "base=")
	if tail != "" && !a.HasBase {
		return a, fmt.Errorf("unexpected %q after filter %s", tail, searchUsage)
	}
	return a, nil
}

func (se *session) search(rest string) {
	args, err := ParseSearchArgs(rest)
	if err != nil {
		se.err(err.Error())
		return
	}
	f, err := filter.Parse(args.Filter)
	if err != nil {
		se.err(err.Error())
		return
	}
	limit := args.Limit
	se.srv.mu.RLock()
	defer se.srv.mu.RUnlock()
	view := se.srv.dir.All()
	if args.HasBase {
		e := se.srv.dir.ByDN(args.Base)
		if e == nil {
			se.err(fmt.Sprintf("base %q not found", args.Base))
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
		se.reply(e.DN())
	}
	se.ok()
}

func (se *session) query(rest string) {
	q, err := hquery.Parse(strings.TrimSpace(rest))
	if err != nil {
		se.err(err.Error())
		return
	}
	se.srv.mu.RLock()
	defer se.srv.mu.RUnlock()
	for _, e := range hquery.Eval(q, hquery.NewBinding(se.srv.dir)) {
		se.reply(e.DN())
	}
	se.ok()
}

func (se *session) get(rest string) {
	dn := strings.TrimSpace(rest)
	se.srv.mu.RLock()
	defer se.srv.mu.RUnlock()
	e := se.srv.dir.ByDN(dn)
	if e == nil {
		se.err(fmt.Sprintf("no entry %q", dn))
		return
	}
	se.reply("dn: " + e.DN())
	for _, name := range e.AttrNames() {
		for _, v := range e.Attr(name) {
			se.reply(name + ": " + v.String())
		}
	}
	se.ok()
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
	se.ok()
}

func (se *session) consistent() {
	res := core.CheckConsistency(se.srv.schema)
	se.reply(fmt.Sprintf("consistent: %v facts: %d", res.Consistent, res.Facts))
	if res.Consistent {
		se.ok()
	} else {
		se.term = "ILLEGAL"
		se.reply("ILLEGAL")
	}
}

func (se *session) stat() {
	role := se.srv.roleString()
	se.srv.mu.RLock()
	defer se.srv.mu.RUnlock()
	se.reply("role: " + role)
	se.reply(fmt.Sprintf("epoch: %d", se.srv.epoch.Load()))
	if se.srv.shardName != "" {
		se.reply("shard: " + se.srv.shardName)
		for _, r := range se.srv.shardRoots {
			se.reply("shard root: " + r)
		}
	}
	se.reply(fmt.Sprintf("entries: %d", se.srv.dir.Len()))
	names := se.srv.dir.ClassNames()
	sort.Strings(names)
	for _, c := range names {
		se.reply(fmt.Sprintf("class %s: %d", c, se.srv.dir.ClassCount(c)))
	}
	se.ok()
}

func (se *session) metricsCmd() {
	s := se.srv
	rs := s.replMetrics()
	s.mu.RLock()
	journalOn := s.journal != nil
	readOnly := s.readOnly
	s.mu.RUnlock()
	if s.shardName != "" {
		se.reply(fmt.Sprintf("shard: name=%s roots=%d", s.shardName, len(s.shardRoots)))
	}
	se.reply(s.metrics.lines(journalOn, readOnly, rs)...)
	se.ok()
}

func (se *session) promoteCmd() {
	lines, err := se.srv.Promote()
	for _, l := range lines {
		se.reply("# " + l)
	}
	if err != nil {
		se.err(err.Error())
		return
	}
	se.reply("# promoted: now primary")
	se.ok()
}

func (se *session) snapshotCmd() {
	s := se.srv
	if err := s.Rotate(); err != nil {
		se.err(err.Error())
		return
	}
	s.mu.RLock()
	snapPath := s.journal.snapPath
	s.mu.RUnlock()
	se.reply("# journal compacted to " + snapPath)
	se.ok()
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
		se.reply("# " + l)
	}
	if err != nil {
		se.err(err.Error())
		return
	}
	se.ok()
}

// cutBalanced splits off a leading balanced-parenthesis span (a filter,
// which may contain spaces) from the rest of the line.
func cutBalanced(s string) (string, string, error) {
	if s == "" || s[0] != '(' {
		return "", "", fmt.Errorf("expected a parenthesized filter")
	}
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // skip the escape marker
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return s[:i+1], s[i+1:], nil
			}
		}
	}
	return "", "", fmt.Errorf("unbalanced filter")
}

func splitCommand(line string) (string, string) {
	cmd, rest, _ := strings.Cut(line, " ")
	return strings.ToUpper(cmd), rest
}

// Snapshot writes the current instance as LDIF, for persistence.
func (s *Server) Snapshot(w *bufio.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return ldif.WriteDirectory(w, s.dir)
}
