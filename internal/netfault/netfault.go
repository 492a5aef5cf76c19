// Package netfault is the network twin of internal/vfs's fault
// injector: it wraps net.Conn (and net.Listener) and injects scripted
// faults at exact I/O operation counts, so network-failure tests are
// deterministic and sweepable the same way the crash matrix sweeps
// filesystem ops.
//
// A Fault owns one shared operation counter across every connection it
// wraps; each Read and Write increments it. A script point names the
// counter value it fires at (Op == 0 fires at every applicable op,
// Op > 0 fires exactly once, mirroring vfs.FaultPoint):
//
//	Drop        close the connection mid-operation
//	Delay       stall the operation for Dur, then proceed
//	Dup         write the operation's bytes twice (a duplicating network)
//	CutInbound  from this op: bytes from the peer are held, not delivered
//	CutOutbound from this op: writes stall (nothing reaches the peer)
//	Partition   both directions at once
//	SlowReader  from this op: every read stalls Dur first
//
// Cuts persist until Heal. Reads are served through a per-connection
// pump goroutine that keeps draining the underlying socket into a
// buffer, so bytes that arrive during an inbound cut are "in flight in
// the network" and delivered only on Heal — a faithful one-way
// partition, not just a lazy reader. Dial refuses (times out) while any
// cut is active, like SYNs lost in a real partition.
//
// The wrapper is for tests: it trades throughput for determinism and
// treats a read error after a deadline as terminal for that connection.
package netfault

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Kind enumerates the injectable network faults.
type Kind int

const (
	// Drop closes the connection at the scripted op.
	Drop Kind = iota + 1
	// Delay stalls the scripted op for Dur, then lets it proceed.
	Delay
	// Dup writes the scripted write's bytes twice.
	Dup
	// CutInbound holds peer→local bytes from the scripted op until Heal.
	CutInbound
	// CutOutbound stalls local→peer writes from the scripted op until Heal.
	CutOutbound
	// Partition cuts both directions from the scripted op until Heal.
	Partition
	// SlowReader stalls every read by Dur from the scripted op until Heal.
	SlowReader
)

func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Dup:
		return "dup"
	case CutInbound:
		return "cut-inbound"
	case CutOutbound:
		return "cut-outbound"
	case Partition:
		return "partition"
	case SlowReader:
		return "slow-reader"
	}
	return fmt.Sprintf("netfault.Kind(%d)", int(k))
}

// Point is one scripted fault: at operation Op (1-based, counted across
// all connections of the Fault), inject Kind. Op == 0 applies to every
// operation; Op > 0 fires exactly once.
type Point struct {
	Op    int
	Kind  Kind
	Dur   time.Duration // Delay and SlowReader stall length
	fired bool
}

// Fault wraps connections and injects its script. The zero value is not
// usable; call New.
type Fault struct {
	mu      sync.Mutex
	script  []Point
	ops     int
	cutIn   bool
	cutOut  bool
	slow    time.Duration
	dupNext bool
	conns   map[*faultConn]struct{}
	dropped int
}

// New creates a fault injector with no script: a transparent wrapper
// that still counts operations (the matrix's counting pass).
func New() *Fault {
	return &Fault{conns: make(map[*faultConn]struct{})}
}

// SetScript installs the fault script, replacing any previous one and
// re-arming one-shot points. The op counter keeps its value.
func (f *Fault) SetScript(points ...Point) {
	f.mu.Lock()
	f.script = make([]Point, len(points))
	copy(f.script, points)
	f.mu.Unlock()
}

// OpCount returns how many wrapped operations have run — the counting
// pass reads this to size a sweep.
func (f *Fault) OpCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Heal lifts every persistent condition (cuts, slow-reader): held
// inbound bytes deliver, stalled writes proceed, dials succeed again.
// One-shot points that already fired stay fired; the op counter keeps
// counting.
func (f *Fault) Heal() {
	f.mu.Lock()
	f.cutIn, f.cutOut, f.slow = false, false, 0
	conns := make([]*faultConn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	for _, c := range conns {
		c.broadcast()
	}
}

// op runs the script for one operation of the given kind class
// (isWrite selects which one-shot kinds apply) and returns the actions
// the caller must take. It never blocks; blocking conditions are
// returned as state for the caller to wait on.
func (f *Fault) op(c *faultConn, isWrite bool) (drop bool, delay time.Duration, dup bool) {
	f.mu.Lock()
	f.ops++
	for i := range f.script {
		p := &f.script[i]
		if p.fired || (p.Op != 0 && p.Op != f.ops) {
			continue
		}
		switch p.Kind {
		case Drop:
			if p.Op != 0 {
				p.fired = true
			}
			f.dropped++
			drop = true
		case Delay:
			if p.Op != 0 {
				p.fired = true
			}
			delay += p.Dur
		case Dup:
			if p.Op != 0 {
				p.fired = true
			}
			if isWrite {
				dup = true
			} else {
				// The scripted op landed on a read; duplicate the next
				// write instead so every sweep position exercises Dup.
				f.dupNext = true
			}
		case CutInbound:
			p.fired = true
			f.cutIn = true
		case CutOutbound:
			p.fired = true
			f.cutOut = true
		case Partition:
			p.fired = true
			f.cutIn, f.cutOut = true, true
		case SlowReader:
			p.fired = true
			f.slow = p.Dur
		}
	}
	if isWrite && f.dupNext {
		dup, f.dupNext = true, false
	}
	f.mu.Unlock()
	if drop || f.stateChanged() {
		f.broadcastAll()
	}
	return drop, delay, dup
}

// stateChanged is a cheap "did a persistent condition possibly begin"
// check; broadcasting spuriously is harmless.
func (f *Fault) stateChanged() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cutIn || f.cutOut || f.slow > 0
}

func (f *Fault) broadcastAll() {
	f.mu.Lock()
	conns := make([]*faultConn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	for _, c := range conns {
		c.broadcast()
	}
}

func (f *Fault) inCut() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cutIn
}

func (f *Fault) outCut() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cutOut
}

func (f *Fault) slowFor() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.slow
}

// wrap returns c with the fault script applied to its reads and writes.
func (f *Fault) wrap(c net.Conn) net.Conn {
	fc := &faultConn{Conn: c, f: f}
	fc.cond = sync.NewCond(&fc.mu)
	f.mu.Lock()
	f.conns[fc] = struct{}{}
	f.mu.Unlock()
	go fc.pump()
	return fc
}

// dial connects with a timeout and wraps the result. While a cut is
// active the dial blocks (polling for Heal) and then fails with a
// timeout, the way SYNs vanish inside a real partition. The signature
// matches server.Options.Dialer.
func (f *Fault) dial(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for f.inCut() || f.outCut() {
		if time.Now().After(deadline) {
			return nil, &net.OpError{Op: "dial", Net: "tcp", Err: errPartitionTimeout{}}
		}
		time.Sleep(5 * time.Millisecond)
	}
	c, err := net.DialTimeout("tcp", addr, time.Until(deadline))
	if err != nil {
		return nil, err
	}
	return f.wrap(c), nil
}

// Dialer returns Dial as a function value for server.Options.Dialer.
func (f *Fault) Dialer() func(addr string, timeout time.Duration) (net.Conn, error) {
	return f.dial
}

type errPartitionTimeout struct{}

func (errPartitionTimeout) Error() string   { return "i/o timeout (netfault partition)" }
func (errPartitionTimeout) Timeout() bool   { return true }
func (errPartitionTimeout) Temporary() bool { return true }

// Listener wraps ln so every accepted connection runs under the fault.
func (f *Fault) Listener(ln net.Listener) net.Listener {
	return &faultListener{Listener: ln, f: f}
}

type faultListener struct {
	net.Listener
	f *Fault
}

func (l *faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.f.wrap(c), nil
}

// faultConn applies the script to one connection. Reads are decoupled
// from the socket by the pump goroutine so an inbound cut holds
// arrived-but-undelivered bytes.
type faultConn struct {
	net.Conn
	f *Fault

	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	rerr   error
	closed bool
}

func (c *faultConn) broadcast() {
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// pump drains the underlying socket into the delivery buffer.
func (c *faultConn) pump() {
	chunk := make([]byte, 32*1024)
	for {
		n, err := c.Conn.Read(chunk)
		c.mu.Lock()
		if n > 0 {
			c.buf = append(c.buf, chunk[:n]...)
		}
		if err != nil {
			c.rerr = err
		}
		c.cond.Broadcast()
		c.mu.Unlock()
		if err != nil {
			return
		}
	}
}

func (c *faultConn) Read(p []byte) (int, error) {
	drop, delay, _ := c.f.op(c, false)
	if drop {
		c.Close()
		return 0, io.ErrClosedPipe
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if d := c.f.slowFor(); d > 0 {
		time.Sleep(d)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return 0, io.ErrClosedPipe
		}
		// Delivery is gated on the cut, not arrival: bytes may sit in
		// c.buf while cutIn holds.
		if !c.f.inCut() {
			if len(c.buf) > 0 {
				n := copy(p, c.buf)
				c.buf = c.buf[n:]
				return n, nil
			}
			if c.rerr != nil {
				return 0, c.rerr
			}
		}
		c.cond.Wait()
	}
}

func (c *faultConn) Write(p []byte) (int, error) {
	drop, delay, dup := c.f.op(c, true)
	if drop {
		c.Close()
		return 0, io.ErrClosedPipe
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	// An outbound cut stalls the write until Heal or local close — the
	// bytes never reach the wire early.
	c.mu.Lock()
	for c.f.outCut() && !c.closed {
		c.cond.Wait()
	}
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return 0, io.ErrClosedPipe
	}
	if dup {
		if n, err := c.Conn.Write(p); err != nil {
			return n, err
		}
	}
	return c.Conn.Write(p)
}

func (c *faultConn) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	c.f.mu.Lock()
	delete(c.f.conns, c)
	c.f.mu.Unlock()
	if already {
		return nil
	}
	return c.Conn.Close()
}
