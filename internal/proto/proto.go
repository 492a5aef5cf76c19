// Package proto is the line protocol's one codec: the command table,
// the request grammar, reply framing and the ERR vocabulary. bsd's
// sessions (internal/server), the shard router and its pool
// (internal/shard) and the load client (internal/loadgen) speak the
// protocol through it; its operations mirror LDAP's.
//
// A request is one line; command words are case-insensitive:
//
//	SEARCH <filter> [base=<dn>] [limit=N]  matching DNs; the base DN runs
//	                                       to the optional limit token
//	QUERY <hierarchical query>             DNs an hquery expression selects
//	GET <dn>                               the entry as LDIF attribute lines
//	COUNT <class> [child] [base=<dn>]      "count: N"; child needs a base
//	BEGIN                                  a transaction, whose body lines
//	    ADD <dn> + "name: value" lines     get no reply
//	    DELETE <dn>
//	    MOVE <dn> -> <dest>                "MOVE <dn> ->": to the forest root
//	    COMMIT | ABORT
//	CHECK | CONSISTENT | SCHEMA | STAT | METRICS | SNAPSHOT | VERIFY |
//	PROMOTE | QUIT
//
// Every reply is zero or more payload lines and one terminator: "OK",
// "ILLEGAL" (after one "# <violation>" line each) or "ERR <message>",
// one line. A body line that errs is answered at once and drops the
// transaction; a line over MaxLineBytes is refused and the connection
// closes.
package proto

import (
	"fmt"
	"strings"
)

// Command is one row of the command table.
type Command struct {
	Name string
	Tx   bool // valid inside BEGIN..COMMIT only; otherwise between commands only
}

// Commands is the command table bsd serves, and its METRICS buckets
// (plus UNKNOWN). The shard router serves the same table, with QUERY
// and PROMOTE refused as not routable, and adds SHARDMAP.
var Commands = []Command{
	{"SEARCH", false}, {"QUERY", false}, {"GET", false}, {"COUNT", false},
	{"BEGIN", false}, {"ADD", true}, {"DELETE", true}, {"MOVE", true},
	{"COMMIT", true}, {"ABORT", true}, {"CHECK", false}, {"CONSISTENT", false},
	{"SCHEMA", false}, {"STAT", false}, {"METRICS", false}, {"SNAPSHOT", false},
	{"VERIFY", false}, {"PROMOTE", false}, {"QUIT", false},
}

// The ERR vocabulary: the stems a client classifies a refusal by
// (internal/loadgen's error taxonomy matches on them). Every refusal
// that carries one builds its message from the constant, so the wording
// and its classification cannot drift apart.
const (
	Redirect     = "redirect primary=" // a write on a replica
	NotDurable   = "commit not durable"
	Fenced       = "fenced:" // a deposed primary that saw a newer epoch
	StaleEpoch   = "stale epoch"
	ReadOnly     = "read-only"
	TooLong      = "line too long"
	TooComplex   = "too complex" // past MaxDepth or MaxNodes
	ShuttingDown = "shutting down"
	IdleTimeout  = "idle timeout"
	NoEntry      = "no entry"
	MissingEntry = "missing entry"
	Unroutable   = "unroutable dn"
	CrossShard   = "cross-shard"
	Unavailable  = "unavailable"
)

// Split cuts a trimmed request line into its upper-cased command word
// and the rest.
func Split(line string) (cmd, rest string) {
	cmd, rest, _ = strings.Cut(line, " ")
	return strings.ToUpper(cmd), rest
}

// Lookup returns the table row of an upper-cased command word.
func Lookup(cmd string) (Command, bool) {
	for _, c := range Commands {
		if c.Name == cmd {
			return c, true
		}
	}
	return Command{}, false
}

// UnknownCommand is the refusal for a command word outside the table
// (or outside its scope, like COMMIT with no transaction open).
func UnknownCommand(cmd string) string {
	return fmt.Sprintf("unknown command %q", cmd)
}
