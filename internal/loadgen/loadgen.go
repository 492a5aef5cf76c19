// Package loadgen is the wire-level harness the chaos battery and the
// repository benchmark share: a minimal protocol client, in-process
// clusters (a single node, a primary with streaming replicas, or carved
// shards behind a router) on fault-injectable filesystems, per-scenario
// sources of schema-respecting operations (whitepages, netpolicy,
// semistructured), and the convergence oracle every chaos run ends in:
// surviving nodes must be byte-identical where expected, pass VERIFY,
// and serve an instance the full (non-incremental) legality engines
// agree is legal. The traffic driver and the chaos scenarios themselves
// live in this package's tests.
package loadgen

import "fmt"

// opKind is one of the five YCSB-style operation classes.
type opKind int

const (
	opCreate opKind = iota // insert new entries (BEGIN..ADD..COMMIT)
	opRead                 // point read (GET <dn>)
	opUpdate               // restructure owned entries (BEGIN..MOVE..COMMIT)
	opDelete               // remove owned entries (BEGIN..DELETE..COMMIT)
	opQuery                // range/subtree scan (SEARCH <filter> [base=<dn>])
)

func (k opKind) String() string {
	switch k {
	case opCreate:
		return "create"
	case opRead:
		return "read"
	case opUpdate:
		return "update"
	case opDelete:
		return "delete"
	case opQuery:
		return "query"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}
