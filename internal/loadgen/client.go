package loadgen

import (
	"bufio"
	"net"
	"strings"
	"time"
)

// Client is a minimal wire-protocol client for the load workers: one
// TCP connection, line-oriented requests, replies read until the
// OK/ILLEGAL/ERR terminator. It is intentionally not safe for
// concurrent use — each worker owns its connections, as a real LDAP
// client library would.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// Dial connects to a server's client protocol address.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }

// Resp is one protocol reply: the payload lines and the terminator
// ("OK", "ILLEGAL", or "ERR"; Err holds the message after "ERR ").
type Resp struct {
	Lines []string
	Term  string
	Err   string
}

// OK reports a clean terminator.
func (r Resp) OK() bool { return r.Term == "OK" }

// readResp consumes one reply. Every server response — including the
// mid-transaction error paths — ends in exactly one terminator line, so
// this is the protocol's only framing rule (pinned by the ERR grammar
// test in internal/server).
func (c *Client) readResp() (Resp, error) {
	var resp Resp
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return resp, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "OK", line == "ILLEGAL":
			resp.Term = line
			return resp, nil
		case strings.HasPrefix(line, "ERR "):
			resp.Term = "ERR"
			resp.Err = line[len("ERR "):]
			return resp, nil
		default:
			resp.Lines = append(resp.Lines, line)
		}
	}
}

// Do sends one command line and reads its reply.
func (c *Client) Do(cmd string) (Resp, error) {
	if _, err := c.w.WriteString(cmd + "\n"); err != nil {
		return Resp{}, err
	}
	if err := c.w.Flush(); err != nil {
		return Resp{}, err
	}
	return c.readResp()
}

// Txn runs BEGIN, the body lines (which produce no replies), and
// COMMIT, returning the COMMIT reply. A BEGIN rejected with ERR (write
// redirect on a replica, shutdown) is returned as-is without sending
// the body. A mid-body protocol error makes the server reply early and
// abort the transaction; that reply then surfaces as the COMMIT's,
// which is why the body must be drained from the socket either way.
func (c *Client) Txn(body []string) (Resp, error) {
	begin, err := c.Do("BEGIN")
	if err != nil || !begin.OK() {
		return begin, err
	}
	for _, l := range body {
		if _, err := c.w.WriteString(l + "\n"); err != nil {
			return Resp{}, err
		}
	}
	return c.Do("COMMIT")
}

// Error taxonomy labels — what classify returns for a failed reply.
const (
	ErrRedirect   = "redirect"      // write on a replica
	ErrFenced     = "fenced"        // deposed primary fenced after observing a newer epoch
	ErrStaleEpoch = "stale_epoch"   // stream refused: the dialed primary's epoch is older
	ErrNotDurable = "not_durable"   // journal write/fsync failed; state rolled back
	ErrReadOnly   = "read_only"     // server degraded to read-only
	ErrTooLong    = "line_too_long" // protocol line over the limit
	ErrShutdown   = "shutdown"      // server closing or idle-timing the session
	ErrConn       = "conn"          // transport error (dial, reset, EOF)
	ErrIllegal    = "illegal"       // transaction rejected by the legality engine
	ErrNotFound   = "not_found"     // target entry absent — expected after an async failover loses the unreplicated tail
	ErrWrongShard = "wrong_shard"   // router: no shard owns the DN (map without a default shard)
	ErrCrossShard = "cross_shard"   // router refused a transaction/move/delete spanning shards
	ErrShardDown  = "shard_down"    // router could not reach the owning shard
	ErrOther      = "err_other"     // any ERR not classified above
)

// classify maps a reply (or transport error) onto the taxonomy; ok
// replies return "".
func classify(resp Resp, err error) string {
	if err != nil {
		return ErrConn
	}
	switch resp.Term {
	case "OK":
		return ""
	case "ILLEGAL":
		return ErrIllegal
	}
	msg := resp.Err
	switch {
	case strings.Contains(msg, "redirect primary="):
		return ErrRedirect
	case strings.Contains(msg, "commit not durable"):
		return ErrNotDurable
	case strings.Contains(msg, "fenced:"):
		// Must precede the read-only case: a fenced ex-primary's reason
		// reads "server is read-only: fenced: ...", and failover drivers
		// need the two told apart (fenced clears on restart; a degraded
		// journal does not).
		return ErrFenced
	case strings.Contains(msg, "stale epoch"):
		return ErrStaleEpoch
	case strings.Contains(msg, "read-only"):
		return ErrReadOnly
	case strings.Contains(msg, "line too long"):
		return ErrTooLong
	case strings.Contains(msg, "shutting down"), strings.Contains(msg, "idle timeout"):
		return ErrShutdown
	case strings.Contains(msg, "no entry"), strings.Contains(msg, "missing entry"):
		return ErrNotFound
	case strings.Contains(msg, "unroutable dn"):
		return ErrWrongShard
	case strings.Contains(msg, "cross-shard"):
		return ErrCrossShard
	case strings.Contains(msg, "unavailable"):
		return ErrShardDown
	default:
		return ErrOther
	}
}
