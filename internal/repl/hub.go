package repl

import (
	"io"
	"sync"
	"time"
)

// Mode selects the primary's durability contract for replication.
type Mode int

const (
	// async ships segments after the local fsync; COMMIT's OK promises
	// local durability only.
	async Mode = iota
	// SemiSync gates COMMIT's OK on an ACK from at least one replica, so
	// OK means the record is durable on the primary AND one replica.
	// With no replica connected (or none answering within the ack
	// timeout) the hub degrades to async — logged and exposed as a gauge
	// — and re-arms once a replica catches back up.
	SemiSync
)

func (m Mode) String() string {
	if m == SemiSync {
		return "semisync"
	}
	return "async"
}

// ParseMode decodes the -repl-mode flag values.
func ParseMode(s string) (Mode, bool) {
	switch s {
	case "async":
		return async, true
	case "semisync":
		return SemiSync, true
	}
	return async, false
}

// defaultAckTimeout bounds how long a semi-sync commit waits for a
// replica ACK before the hub degrades to async.
const defaultAckTimeout = 2 * time.Second

// defaultPingInterval spaces the heartbeat lines replicas derive their
// lag gauge from.
const defaultPingInterval = 500 * time.Millisecond

// subQueueLen bounds a replica's outgoing queue. A replica that falls
// this far behind the live stream is dropped; it reconnects and catches
// up from the journal tail instead of holding memory on the primary.
const subQueueLen = 1024

// gate is one semi-sync commit waiting for replica durability.
type gate struct {
	seq  uint64
	done chan error
}

// Hub is the primary side of replication: it fans durable journal
// segments out to subscribed replicas, tracks their acknowledgements,
// and gates semi-sync commits. All methods are safe for concurrent use.
type Hub struct {
	mode       Mode
	ackTimeout time.Duration
	logf       func(format string, args ...any)

	mu          sync.Mutex
	epoch       uint64
	subs        map[*Sub]struct{}
	lastShipped uint64
	maxAcked    uint64
	degraded    bool
	gates       []gate
	closed      bool

	pingStop chan struct{}
	pingDone chan struct{}
}

// HubStatus is a snapshot of the hub's replication state, rendered by
// the server's METRICS surface.
type HubStatus struct {
	Mode        Mode
	Epoch       uint64
	Replicas    int
	LastShipped uint64
	AckedSeq    uint64
	Degraded    bool
}

// NewHub creates a hub. logf may be nil; ackTimeout and pingInterval
// fall back to the defaults when zero. The heartbeat loop starts
// immediately and runs until Close.
func NewHub(mode Mode, ackTimeout, pingInterval time.Duration, logf func(string, ...any)) *Hub {
	if ackTimeout <= 0 {
		ackTimeout = defaultAckTimeout
	}
	if pingInterval <= 0 {
		pingInterval = defaultPingInterval
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	h := &Hub{
		mode:       mode,
		ackTimeout: ackTimeout,
		logf:       logf,
		subs:       make(map[*Sub]struct{}),
		pingStop:   make(chan struct{}),
		pingDone:   make(chan struct{}),
	}
	go h.pingLoop(pingInterval)
	return h
}

// SetEpoch stamps the hub with the primary's replication epoch; it is
// carried on heartbeats and reported in Status. A hub's epoch is
// constant for its lifetime — promotion tears the old hub down.
func (h *Hub) SetEpoch(epoch uint64) {
	h.mu.Lock()
	h.epoch = epoch
	h.mu.Unlock()
}

// Sub is one subscribed replica connection. The hub owns a writer
// goroutine per subscriber so a slow replica never blocks Ship.
type Sub struct {
	id     string
	ch     chan []byte
	quit   chan struct{}
	once   sync.Once
	w      io.Writer
	onDrop func()
	acked  uint64
}

// Subscribe registers a replica connection. first is written before any
// queued segment — the bootstrap header and blob — so callers can
// register at the exact sequence point the bootstrap captures and rely
// on queue order for everything after. onDrop is invoked (once, from
// the writer goroutine) when the subscriber is dropped for a write
// error or queue overflow; it should close the connection.
func (h *Hub) Subscribe(id string, w io.Writer, onDrop func(), first ...[]byte) *Sub {
	sub := &Sub{
		id:     id,
		ch:     make(chan []byte, subQueueLen),
		quit:   make(chan struct{}),
		w:      w,
		onDrop: onDrop,
	}
	for _, b := range first {
		sub.ch <- b
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		sub.stop()
		return sub
	}
	h.subs[sub] = struct{}{}
	h.mu.Unlock()
	go h.writeLoop(sub)
	h.logf("repl: replica %s subscribed", id)
	return sub
}

// Unsubscribe removes a replica (normal disconnect). Idempotent.
func (h *Hub) Unsubscribe(sub *Sub) { h.drop(sub, false) }

func (h *Hub) drop(sub *Sub, overflow bool) {
	h.mu.Lock()
	_, present := h.subs[sub]
	delete(h.subs, sub)
	h.mu.Unlock()
	sub.stop()
	if present && overflow {
		h.logf("repl: replica %s dropped (outgoing queue overflow; it will reconnect and catch up from the journal)", sub.id)
	}
}

func (s *Sub) stop() {
	s.once.Do(func() {
		close(s.quit)
		if s.onDrop != nil {
			s.onDrop()
		}
	})
}

func (h *Hub) writeLoop(sub *Sub) {
	for {
		select {
		case b := <-sub.ch:
			if _, err := sub.w.Write(b); err != nil {
				h.mu.Lock()
				delete(h.subs, sub)
				h.mu.Unlock()
				sub.stop()
				return
			}
		case <-sub.quit:
			return
		}
	}
}

// enqueue hands bytes to a subscriber without ever blocking; overflow
// drops the replica. Callers hold h.mu.
func (h *Hub) enqueue(sub *Sub, b []byte) {
	select {
	case sub.ch <- b:
	default:
		delete(h.subs, sub)
		go h.drop(sub, true)
	}
}

// Ship fans one durable segment (verbatim journal bytes) out to every
// subscriber and advances the shipped watermark. Callers must ship in
// journal order; the per-subscriber queues preserve it.
func (h *Hub) Ship(seq uint64, raw []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	if seq > h.lastShipped {
		h.lastShipped = seq
	}
	for sub := range h.subs {
		h.enqueue(sub, raw)
	}
}

// Gate releases done when the semi-sync contract for seq is met: an ACK
// covering seq has arrived, the hub is (or becomes) degraded, or the
// hub closes. In async mode it releases immediately. The value sent is
// always nil — replication never fails a locally durable commit, it
// only delays or de-escalates its acknowledgement.
func (h *Hub) Gate(seq uint64, done chan error) {
	h.mu.Lock()
	if h.mode != SemiSync || h.closed || h.degraded || h.maxAcked >= seq {
		h.mu.Unlock()
		done <- nil
		return
	}
	if len(h.subs) == 0 {
		// No replica connected: degrade now instead of stalling every
		// commit for the ack timeout. Re-arms when a replica catches up.
		h.degradeLocked("no replica connected")
		h.mu.Unlock()
		done <- nil
		return
	}
	h.gates = append(h.gates, gate{seq: seq, done: done})
	h.mu.Unlock()
	time.AfterFunc(h.ackTimeout, func() { h.expire(seq) })
}

// expire fires when a gated commit has waited the full ack timeout; if
// it is still waiting, the hub degrades (releasing every gate).
func (h *Hub) expire(seq uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || h.degraded || h.maxAcked >= seq {
		return
	}
	for _, g := range h.gates {
		if g.seq == seq {
			h.degradeLocked("ack timeout")
			return
		}
	}
}

// degradeLocked flips to async and releases every waiting commit.
// Callers hold h.mu.
func (h *Hub) degradeLocked(why string) {
	h.degraded = true
	h.logf("repl: semi-sync degraded to async (%s); commits acknowledge on local durability only", why)
	for _, g := range h.gates {
		g.done <- nil
	}
	h.gates = nil
}

// Ack records that sub holds everything through seq durably. It
// releases semi-sync gates the ack covers, and re-arms a degraded hub
// once the acknowledged watermark catches the shipped one.
func (h *Hub) Ack(sub *Sub, seq uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	if seq > sub.acked {
		sub.acked = seq
	}
	if seq <= h.maxAcked {
		return
	}
	h.maxAcked = seq
	kept := h.gates[:0]
	for _, g := range h.gates {
		if g.seq <= seq {
			g.done <- nil
		} else {
			kept = append(kept, g)
		}
	}
	h.gates = kept
	if h.degraded && h.mode == SemiSync && h.maxAcked >= h.lastShipped {
		h.degraded = false
		h.logf("repl: semi-sync re-enabled (replica caught up through seq %d)", seq)
	}
}

// Status snapshots the hub for the metrics surface.
func (h *Hub) Status() HubStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HubStatus{
		Mode:        h.mode,
		Epoch:       h.epoch,
		Replicas:    len(h.subs),
		LastShipped: h.lastShipped,
		AckedSeq:    h.maxAcked,
		Degraded:    h.degraded,
	}
}

// Close releases every waiting commit, drops every subscriber and stops
// the heartbeat loop. Safe to call once.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	for _, g := range h.gates {
		g.done <- nil
	}
	h.gates = nil
	subs := make([]*Sub, 0, len(h.subs))
	for sub := range h.subs {
		subs = append(subs, sub)
	}
	h.subs = make(map[*Sub]struct{})
	h.mu.Unlock()
	close(h.pingStop)
	for _, sub := range subs {
		sub.stop()
	}
	<-h.pingDone
}

func (h *Hub) pingLoop(every time.Duration) {
	defer close(h.pingDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			h.mu.Lock()
			if h.closed {
				h.mu.Unlock()
				return
			}
			line := []byte(pingLine(h.lastShipped, h.epoch))
			for sub := range h.subs {
				h.enqueue(sub, line)
			}
			h.mu.Unlock()
		case <-h.pingStop:
			return
		}
	}
}
