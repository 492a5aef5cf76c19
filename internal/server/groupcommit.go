package server

import (
	"errors"
	"fmt"
	"sync"

	"boundschema/internal/proto"
	"boundschema/internal/txn"
)

// This file is the durability half of the commit path — the only one a
// journaled primary has. CommitTx's write-lock critical section is
// apply + validate + re-encode + journal-record encoding; durability
// belongs to a single committer goroutine that coalesces every record
// staged while the previous fsync was in flight into one write + Sync()
// (ARIES-style group commit), so a slow disk sync stalls neither
// readers nor the next wave of appliers. A lone writer is a batch of
// one.
//
// Invariants:
//
//   - Journal order equals apply order. Sequence numbers are assigned
//     and records staged while the apply's write lock is still held, so
//     the staging queue is always in apply order and the committer
//     writes it front-to-back.
//   - OK still means applied AND on disk. A session replies only after
//     its record's batch has fsynced.
//   - A failed batch write/sync fails every member: the committer
//     re-acquires the write lock, rolls back the batch's transactions
//     plus anything staged on top of them (all equally non-durable) in
//     reverse apply order via their ApplyWithUndo closures, truncates
//     torn bytes, and replies "ERR commit not durable" to each. If the
//     rollback or the truncate fails, the server degrades to read-only.
//   - Snapshot rotation only runs at a quiescent point (staging queue
//     empty under the write lock), so the snapshot can never contain a
//     transaction the journal will replay again.

// commitReq is one staged, already-applied transaction awaiting
// durability. data is the encoded LDIF change record, produced under the
// write lock so it reflects exactly what was applied.
type commitReq struct {
	seq  uint64
	data []byte
	undo func() error // rolls the apply back; call under s.mu only
	done chan error   // buffered(1); nil means durable
}

// committer owns all journal file I/O on a primary (a replica has none
// and appends inline under srv.mu). It is started by OpenJournal and
// Promote, and stopped by Close after sessions drain.
type committer struct {
	srv *Server

	mu       sync.Mutex
	staged   []*commitReq  // apply-ordered; appended under srv.mu
	quiesces []*quiesceReq // pending atQuiescent requests
	lastSeq  uint64

	wake     chan struct{} // buffered(1) doorbell
	quit     chan struct{}
	dead     chan struct{}
	stopOnce sync.Once
}

func (s *Server) startCommitter() {
	c := &committer{
		srv:  s,
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
		dead: make(chan struct{}),
	}
	s.committer = c
	go c.loop()
}

// stop shuts the committer down after draining staged work. Safe to call
// more than once; callers must ensure no new sessions can stage.
func (c *committer) stop() {
	c.stopOnce.Do(func() { close(c.quit) })
	<-c.dead
}

// stage enqueues a record for the next batch. Called with srv.mu held,
// which is what makes the queue order equal the apply order.
func (c *committer) stage(r *commitReq) {
	c.mu.Lock()
	if r.seq < c.lastSeq {
		// Defensive: sequence numbers are assigned under the same lock
		// that orders staging, so this cannot happen short of a bug.
		c.srv.logf("server: group commit staged out of order (seq %d after %d)", r.seq, c.lastSeq)
	}
	c.lastSeq = r.seq
	c.staged = append(c.staged, r)
	c.mu.Unlock()
	c.ring()
}

// quiesceReq is work that must run at a quiescent point — staged queue
// empty under srv.mu, so the in-memory instance equals the durable
// state and no journal append is in flight. Everything atQuiescent is
// asked to run rides this queue.
type quiesceReq struct {
	fn   func() error // runs under srv.mu at the quiescent point
	done chan error
}

// requestQuiesce enqueues fn for the committer's next quiescent point
// and returns the channel its result lands on. The waiter must not hold
// srv.mu while it waits (the committer's failure path needs the lock).
func (c *committer) requestQuiesce(fn func() error) chan error {
	q := &quiesceReq{fn: fn, done: make(chan error, 1)}
	c.mu.Lock()
	c.quiesces = append(c.quiesces, q)
	c.mu.Unlock()
	c.ring()
	return q.done
}

func (c *committer) ring() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

func (c *committer) takeStaged() []*commitReq {
	c.mu.Lock()
	batch := c.staged
	c.staged = nil
	c.mu.Unlock()
	return batch
}

func (c *committer) stagedEmpty() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.staged) == 0
}

func (c *committer) takeQuiesces() []*quiesceReq {
	c.mu.Lock()
	qs := c.quiesces
	c.quiesces = nil
	c.mu.Unlock()
	return qs
}

func (c *committer) loop() {
	defer close(c.dead)
	for {
		select {
		case <-c.wake:
		case <-c.quit:
			c.drain()
			return
		}
		if batch := c.takeStaged(); len(batch) > 0 {
			c.commitBatch(batch)
		}
		// Rotation before quiesce requests: a caller that commits and then
		// waits on atQuiescent observes the journal after any rotation
		// that commit triggered, never racing it.
		c.maybeAutoRotate()
		if qs := c.takeQuiesces(); len(qs) > 0 {
			c.quiesce(qs)
		}
	}
}

// drain flushes everything staged at shutdown so no session is left
// waiting on a reply. Pending quiesce work is refused.
func (c *committer) drain() {
	for {
		batch := c.takeStaged()
		qs := c.takeQuiesces()
		if len(batch) == 0 && len(qs) == 0 {
			return
		}
		if len(batch) > 0 {
			c.commitBatch(batch)
		}
		for _, q := range qs {
			q.done <- errors.New("server " + proto.ShuttingDown)
		}
	}
}

// commitBatch writes every staged record and performs one Sync for the
// whole batch. Runs without srv.mu — this is the point of the pipeline:
// readers and the next wave of appliers proceed while the disk works.
func (c *committer) commitBatch(batch []*commitReq) {
	s := c.srv
	recs := make([][]byte, len(batch))
	for i, r := range batch {
		recs[i] = r.data
	}
	if err := s.journal.append(recs...); err != nil {
		c.failBatch(batch, err)
		return
	}
	// Replication: ship the whole batch in journal order (only this
	// goroutine ships), then release each waiter. Under semi-sync the
	// hub holds a waiter's done channel until a replica ack covers its
	// seq — the batch OK is gated on replica durability without blocking
	// the committer itself.
	hub := s.replHub.Load()
	if hub != nil {
		for _, r := range batch {
			hub.Ship(r.seq, r.data)
		}
	}
	for _, r := range batch {
		if hub != nil {
			hub.Gate(r.seq, r.done)
		} else {
			r.done <- nil
		}
	}
}

// failBatch handles a failed batch write or sync: every member — plus
// any transaction staged on top of the batch while the sync was in
// flight, which is equally non-durable and was applied later — is rolled
// back in reverse apply order under the write lock (journal.append
// already truncated the torn bytes away), and each session gets the
// error for its "ERR commit not durable" reply.
func (c *committer) failBatch(batch []*commitReq, err error) {
	s := c.srv
	s.mu.Lock()
	all := append(batch, c.takeStaged()...)
	undos := make([]func() error, len(all))
	for i, r := range all {
		undos[i] = r.undo
	}
	if uerr := txn.ComposeUndo(undos...)(); uerr != nil {
		s.readOnly = fmt.Sprintf("in-memory state diverged after failed journal write: %v (rollback: %v)", err, uerr)
		s.logf("server: %s", s.readOnly)
	}
	s.dir.EnsureEncoded()
	// Reclaim the failed transactions' sequence numbers: none of them
	// reached the disk, and leaving a gap would make a later restart read
	// the journal's seq run as broken. Safe under s.mu — staging requires
	// the same lock, so nothing can interleave a new assignment.
	if len(all) > 0 {
		s.commitSeq = all[0].seq - 1
		c.mu.Lock()
		c.lastSeq = s.commitSeq
		c.mu.Unlock()
	}
	if s.journal.failed != "" {
		s.readOnly = s.journal.failed
		s.logf("journal: %s", s.readOnly)
	}
	s.mu.Unlock()
	for _, r := range all {
		r.done <- err
	}
}

// quiesce serves atQuiescent requests. They must only run when the
// in-memory instance equals the durable state — a snapshot taken
// earlier would contain staged-but-unsynced transactions the journal
// later replays again, and a verify would find the unsynced tail.
// Holding the write lock freezes staging, so "staged queue empty under
// srv.mu" is exactly that quiescent point; any backlog is flushed first.
func (c *committer) quiesce(reqs []*quiesceReq) {
	s := c.srv
	for {
		s.mu.Lock()
		if c.stagedEmpty() {
			break
		}
		s.mu.Unlock()
		if batch := c.takeStaged(); len(batch) > 0 {
			c.commitBatch(batch)
		}
	}
	for _, q := range reqs {
		q.done <- q.fn()
	}
	s.mu.Unlock()
}

// maybeAutoRotate applies the size-threshold rotation rule after a
// batch. Skipped when new commits are already staged — the journal is
// still a complete log, and the check reruns after the next batch.
func (c *committer) maybeAutoRotate() {
	s := c.srv
	if s.opts.JournalRotate <= 0 || s.journal.size < s.opts.JournalRotate {
		return
	}
	s.mu.Lock()
	if c.stagedEmpty() && s.readOnly == "" {
		if err := s.rotateJournal(); err != nil {
			s.metrics.JournalErrors.Add(1)
			s.logf("journal rotation: %v", err)
		}
	}
	s.mu.Unlock()
}
