package loadgen

import (
	"net"
	"strings"
	"time"

	"boundschema/internal/proto"
)

// Client is the load workers' protocol client: one TCP connection
// framed by internal/proto (Do, Txn, Close). It is not safe for
// concurrent use — each worker owns its connections, as a real LDAP
// client library would.
type Client struct{ *proto.Conn }

// Dial connects to a server's client protocol address.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{proto.NewConn(conn)}, nil
}

// Deprecated: use proto.Reply.
type Resp = proto.Reply

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

// taxonomy maps ERR stems to labels; the first match wins. Fenced must
// precede read-only: a fenced ex-primary's reason reads "server is
// read-only: fenced: ...", and failover drivers need the two told apart
// (fenced clears on restart; a degraded journal does not).
var taxonomy = []struct{ stem, label string }{
	{proto.Redirect, ErrRedirect}, {proto.NotDurable, ErrNotDurable},
	{proto.Fenced, ErrFenced}, {proto.StaleEpoch, ErrStaleEpoch},
	{proto.ReadOnly, ErrReadOnly}, {proto.TooLong, ErrTooLong},
	{proto.ShuttingDown, ErrShutdown}, {proto.IdleTimeout, ErrShutdown},
	{proto.NoEntry, ErrNotFound}, {proto.MissingEntry, ErrNotFound},
	{proto.Unroutable, ErrWrongShard}, {proto.CrossShard, ErrCrossShard},
	{proto.Unavailable, ErrShardDown},
}

// classify maps a reply (or transport error) onto the taxonomy; ok
// replies return "".
func classify(resp proto.Reply, err error) string {
	switch {
	case err != nil:
		return ErrConn
	case resp.Term == "OK":
		return ""
	case resp.Term == "ILLEGAL":
		return ErrIllegal
	}
	for _, t := range taxonomy {
		if strings.Contains(resp.Err, t.stem) {
			return t.label
		}
	}
	return ErrOther
}
