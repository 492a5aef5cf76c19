package shard

import (
	"net"
	"sync"
	"time"

	"boundschema/internal/proto"
	"boundschema/internal/repl"
)

// poolMaxIdle caps idle connections kept per shard; beyond it, returned
// connections are closed.
const poolMaxIdle = 4

// dialTimeout bounds one dial attempt; ioTimeout bounds one borrow of
// a connection (one routed command or one replayed transaction) so a
// wedged shard cannot wedge the router session holding it.
const (
	dialTimeout = 2 * time.Second
	ioTimeout   = 30 * time.Second
)

// pool hands out pooled connections to one shard, redialing with the
// replication transport's equal-jitter backoff: shards restart, and a
// router that redials in lockstep across sessions hammers the
// recovering shard exactly when it is weakest.
type pool struct {
	shard *Shard

	mu     sync.Mutex
	idle   []*shardConn
	closed bool
}

// shardConn is one pooled connection, framed by internal/proto.
type shardConn struct {
	*proto.Conn
	nc net.Conn // the raw connection, whose deadline get arms
}

// get pops an idle connection or dials a fresh one, and arms its
// deadline ioTimeout from now.
func (p *pool) get() (*shardConn, error) {
	var c *shardConn
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		c = p.idle[n-1]
		p.idle = p.idle[:n-1]
	}
	p.mu.Unlock()
	if c == nil {
		nc, err := p.dial()
		if err != nil {
			return nil, err
		}
		c = &shardConn{Conn: proto.NewConn(nc), nc: nc}
	}
	c.nc.SetDeadline(time.Now().Add(ioTimeout))
	return c, nil
}

// dial retries with jittered backoff within one bounded budget (~1 s)
// before giving up — the router reports the shard unavailable rather
// than hanging the client session.
func (p *pool) dial() (net.Conn, error) {
	backoff := 50 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 {
			time.Sleep(repl.JitterBackoff(backoff))
			backoff = repl.NextBackoff(backoff, 400*time.Millisecond)
		}
		conn, err := net.DialTimeout("tcp", p.shard.Addr, dialTimeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// put returns a connection whose last reply was read cleanly. Anything
// suspect (transport error, a transaction replay that erred early and
// may have queued extra replies) must be discarded with c.Close()
// instead — a pooled connection with stale replies would desync the
// next borrower.
func (p *pool) put(c *shardConn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.idle) >= poolMaxIdle {
		c.Close()
		return
	}
	p.idle = append(p.idle, c)
}

func (p *pool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, c := range p.idle {
		c.Close()
	}
	p.idle = nil
}
