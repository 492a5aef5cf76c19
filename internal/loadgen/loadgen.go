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

// OpKind is one of the five YCSB-style operation classes.
type OpKind int

const (
	OpCreate OpKind = iota // insert new entries (BEGIN..ADD..COMMIT)
	OpRead                 // point read (GET <dn>)
	OpUpdate               // restructure owned entries (BEGIN..MOVE..COMMIT)
	OpDelete               // remove owned entries (BEGIN..DELETE..COMMIT)
	OpQuery                // range/subtree scan (SEARCH <filter> [base=<dn>])
)

func (k OpKind) String() string {
	switch k {
	case OpCreate:
		return "create"
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpQuery:
		return "query"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}
