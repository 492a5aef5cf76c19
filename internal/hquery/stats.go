package hquery

import (
	"fmt"
	"strings"

	"boundschema/internal/dirtree"
)

// NodeStats records one operator's evaluation during an instrumented run.
type NodeStats struct {
	// Op is the operator name (select/child/parent/desc/anc/minus).
	Op string
	// Detail renders the node (filter text for atoms).
	Detail string
	// Left and Right are the operand result sizes, -1 for atoms and for
	// an operand the operator did not materialize.
	Left, Right int
	// Out is the node's result size, -1 for a matcher atom.
	Out int
	// Strategy names what Eval executed. Atoms report the planner's access
	// path (scan, posting-list, index-eq, index-range, index-prefix,
	// index-present, empty, with "+filter" when a residual filter runs),
	// or matcher for an atom a probe path tested per candidate. Joins
	// report hash, hash-parents, merge, staircase, diff, a probe-parent,
	// -anc, -child or -desc path, or short-circuit when an operand was
	// empty; the nodes it never evaluated report skipped.
	Strategy string
	// Est is the planner's cardinality estimate for atoms (the number of
	// candidate entries the chosen access path fetches); 0 for joins.
	Est int
	// Depth is the node's depth in the query tree, for rendering.
	Depth int
	// children indexes into Stats.Nodes, for rendering; nil for atoms.
	children []int
}

// Stats collects per-node statistics of one Eval, one node per operator
// and atom, each node after its operands.
type Stats struct {
	Nodes []NodeStats
}

// String renders the statistics as an EXPLAIN-style tree, root first.
func (s *Stats) String() string {
	var b strings.Builder
	if len(s.Nodes) == 0 {
		return ""
	}
	var render func(i int)
	render = func(i int) {
		n := s.Nodes[i]
		fmt.Fprintf(&b, "%s%-8s %-14s out=%-8d", strings.Repeat("  ", n.Depth), n.Op, n.Strategy, n.Out)
		if n.children != nil {
			fmt.Fprintf(&b, " left=%-8d right=%-8d\n", n.Left, n.Right)
		} else {
			fmt.Fprintf(&b, " est=%-8d %s\n", n.Est, n.Detail)
		}
		for _, c := range n.children {
			render(c)
		}
	}
	render(len(s.Nodes) - 1) // the root is appended last (post-order)
	return b.String()
}

// TotalWork returns the sum of operand sizes touched, the |Q|·|D| work
// measure of Theorem 3.1.
func (s *Stats) TotalWork() int {
	total := 0
	for _, n := range s.Nodes {
		if n.children == nil {
			total += max(n.Out, 0)
		} else {
			total += max(n.Left, 0) + max(n.Right, 0)
		}
	}
	return total
}

// EvalWithStats evaluates the query as Eval does and reports, per
// operator and atom, the strategy it executed and the sizes it touched.
func EvalWithStats(q Query, b Binding) ([]*dirtree.Entry, *Stats) {
	b.Default.Directory().EnsureEncoded()
	st := &Stats{}
	return q.eval(b, st, 0), st
}

// The recorders below are no-ops on a nil *Stats, which is how Eval runs.

// atom records an atomic selection: evaluated by plan p, tested per
// candidate by a probe path (matcher), or never evaluated (skipped).
func (s *Stats) atom(q selectQ, p sPlan, out, depth int) {
	if s == nil {
		return
	}
	detail := q.f.String()
	if q.inst != InstDefault {
		detail += " @" + q.inst.String()
	}
	s.Nodes = append(s.Nodes, NodeStats{Op: "select", Detail: detail,
		Left: -1, Right: -1, Out: out, Strategy: p.label(), Est: p.est, Depth: depth})
}

// skip records every node of a subtree a short-circuit never evaluated.
func (s *Stats) skip(q Query, depth int) {
	if s == nil {
		return
	}
	if t, ok := q.(binQ); ok {
		s.skip(t.left, depth+1)
		s.skip(t.right, depth+1)
		s.join(t, "skipped", joinTrace{left: -1, right: -1}, 0, depth)
	} else {
		s.atom(q.(selectQ), sPlan{strategy: "skipped"}, 0, depth)
	}
}

// join records an operator after its operands. Every query node records
// exactly one node and each subtree records contiguously, so the operand
// recorded second sits just below this node and the other one below its
// subtree.
func (s *Stats) join(q binQ, strategy string, j joinTrace, out, depth int) {
	if s == nil {
		return
	}
	last := len(s.Nodes) - 1
	li, ri := last-q.right.Size(), last
	if j.rightFirst {
		li, ri = last, last-q.left.Size()
	}
	s.Nodes = append(s.Nodes, NodeStats{Op: opNames[q.kind], Left: j.left, Right: j.right,
		Out: out, Strategy: strategy, Depth: depth, children: []int{li, ri}})
}
