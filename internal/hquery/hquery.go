// Package hquery implements the fragment of the hierarchical selection
// query language of Jagadish et al. (SIGMOD 1999, reference [9] of the
// paper) that the bounding-schema legality tests reduce to (Section 3.2):
// atomic selections, the four hierarchical combinators (child, parent,
// descendant, ancestor), and set difference.
//
// Evaluation is linear: with the directory's per-class posting lists
// sorted in pre-order (dirtree), every operator is a hash or merge join
// over its sorted inputs, giving the O(|Q|·|D|) bound that Theorem 3.1
// relies on.
//
// To support the incremental Δ-queries of Figure 5 — which evaluate
// different sub-expressions of one query against different sub-instances
// (∅, Δ, D, D±Δ) — every atomic selection carries an instance tag that is
// resolved against a Binding at evaluation time.
package hquery

import (
	"cmp"
	"slices"
	"strings"

	"boundschema/internal/dirtree"
	"boundschema/internal/filter"
)

// Inst names the sub-instance an atomic selection draws its entries from,
// following the bracket annotations of Figure 5.
type Inst int

// Instance tags.
const (
	InstDefault Inst = iota // the binding's default instance (plain queries)
	instEmpty               // ∅ — no entries
	InstDelta               // Δ — the inserted or to-be-deleted subtree
	InstBase                // D — the instance without Δ
	InstFull                // D+Δ (after insertion) or D (before deletion)
)

func (i Inst) String() string {
	switch i {
	case InstDefault:
		return "D"
	case instEmpty:
		return "0"
	case InstDelta:
		return "delta"
	case InstBase:
		return "base"
	case InstFull:
		return "full"
	}
	return "?"
}

// Binding resolves instance tags to concrete views over one directory.
// For ordinary (non-incremental) evaluation use NewBinding.
//
// A Binding is an immutable value and may be shared across goroutines
// while no bound directory is mutated. Evaluation over a sealed
// directory is read-only; the first evaluation over a building one
// seals it, so seal it before fanning out (dirtree.Directory).
type Binding struct {
	Default dirtree.View
	Delta   dirtree.View
	Base    dirtree.View
	Full    dirtree.View
}

// NewBinding binds every tag to the whole directory, for plain queries.
func NewBinding(d *dirtree.Directory) Binding {
	all := d.All()
	return Binding{Default: all, Delta: all, Base: all, Full: all}
}

// DeltaBinding binds the tags for an incremental check where delta is the
// inserted (already grafted) or to-be-deleted (not yet removed) subtree:
// Δ = the subtree, D = everything else, full = the whole current forest.
func DeltaBinding(d *dirtree.Directory, delta *dirtree.Entry) Binding {
	return Binding{
		Default: d.All(),
		Delta:   d.SubtreeView(delta),
		Base:    d.ExceptSubtreeView(delta),
		Full:    d.All(),
	}
}

func (b Binding) view(i Inst) dirtree.View {
	switch i {
	case instEmpty:
		return b.Default.Directory().EmptyView()
	case InstDelta:
		return b.Delta
	case InstBase:
		return b.Base
	case InstFull:
		return b.Full
	default:
		return b.Default
	}
}

// Query is a hierarchical selection query. Results of evaluation are entry
// lists sorted by pre-order rank.
type Query interface {
	// eval evaluates the query; a non-nil st records one node per
	// operator and atom, depth being this node's.
	eval(b Binding, st *Stats, depth int) []*dirtree.Entry
	writeTo(sb *strings.Builder)
	// size returns |Q|, the number of operators and atoms, used in the
	// O(|Q|·|D|) accounting of Theorem 3.1.
	size() int
}

// Eval evaluates the query against the binding and returns the matching
// entries in pre-order.
func Eval(q Query, b Binding) []*dirtree.Entry {
	return q.eval(b, nil, 0)
}

// Empty reports whether the query evaluates to the empty set — the
// legality criterion of Section 3.2.
func Empty(q Query, b Binding) bool { return len(Eval(q, b)) == 0 }

// String renders a query in the s-expression form accepted by Parse, with
// the operator names matching the paper's σ, σ−, δc, δp, δd, δa.
func String(q Query) string {
	var sb strings.Builder
	q.writeTo(&sb)
	return sb.String()
}

// ---------------------------------------------------------------------
// Atomic selection.

type selectQ struct {
	f    filter.Filter
	inst Inst
}

// selectAtom returns the atomic selection σ(f) over the binding's default
// instance.
func selectAtom(f filter.Filter) Query { return selectQ{f: f, inst: InstDefault} }

// selectOn returns the atomic selection σ(f) evaluated against the named
// sub-instance, as in Figure 5's "(objectClass=ci)[Δ]".
func selectOn(f filter.Filter, inst Inst) Query { return selectQ{f: f, inst: inst} }

// ClassAtom is shorthand for the ubiquitous (objectClass=c) atom.
func ClassAtom(c string) Query { return selectAtom(filter.ClassIs(c)) }

// ClassAtomOn is ClassAtom with an explicit instance tag.
func ClassAtomOn(c string, inst Inst) Query { return selectOn(filter.ClassIs(c), inst) }

func (q selectQ) size() int { return 1 }

func (q selectQ) eval(b Binding, st *Stats, depth int) []*dirtree.Entry {
	v := b.view(q.inst)
	if v.IsEmptyView() {
		st.atom(q, sPlan{strategy: stratEmpty}, 0, depth)
		return nil
	}
	// Pure objectClass equality — the legality-check hot path (Figure 4
	// translates every structure-schema element to such atoms) — reads the
	// posting list without consulting the planner.
	if c, ok := q.f.(filter.Compare); ok && c.Op == filter.OpEqual && c.Attr == dirtree.AttrObjectClass {
		out := v.ClassEntries(c.Value)
		st.atom(q, sPlan{strategy: stratClass, est: len(out)}, len(out), depth)
		return out
	}
	p := planSelect(q.f, v)
	out := p.execute(q.f, v)
	st.atom(q, p, len(out), depth)
	return out
}

// classLead recognizes filters of the form (objectClass=c) or
// (&(objectClass=c) rest...) and returns the class plus the residual
// filter (nil if none).
func classLead(f filter.Filter) (string, filter.Filter, bool) {
	switch t := f.(type) {
	case filter.Compare:
		if t.Op == filter.OpEqual && t.Attr == dirtree.AttrObjectClass {
			return t.Value, nil, true
		}
	case filter.And:
		for i, sub := range t {
			if c, ok := sub.(filter.Compare); ok && c.Op == filter.OpEqual && c.Attr == dirtree.AttrObjectClass {
				rest := make(filter.And, 0, len(t)-1)
				rest = append(rest, t[:i]...)
				rest = append(rest, t[i+1:]...)
				if len(rest) == 0 {
					return c.Value, nil, true
				}
				return c.Value, rest, true
			}
		}
	}
	return "", nil, false
}

func (q selectQ) writeTo(sb *strings.Builder) {
	sb.WriteString("(select ")
	sb.WriteString(q.f.String())
	if q.inst != InstDefault {
		sb.WriteString(" @")
		sb.WriteString(q.inst.String())
	}
	sb.WriteByte(')')
}

// ---------------------------------------------------------------------
// Binary operators.

type opKind int

const (
	opChild  opKind = iota // δc: left entries with a child in right
	opParent               // δp: left entries whose parent is in right
	opDesc                 // δd: left entries with a descendant in right
	opAnc                  // δa: left entries with an ancestor in right
	opMinus                // σ−: left minus right
)

var opNames = [...]string{"child", "parent", "desc", "anc", "minus"}

type binQ struct {
	kind        opKind
	left, right Query
}

// Child returns δc(left, right): the entries of left having at least one
// child in right.
func Child(left, right Query) Query { return binQ{opChild, left, right} }

// Parent returns δp(left, right): the entries of left whose parent is in
// right.
func Parent(left, right Query) Query { return binQ{opParent, left, right} }

// Desc returns δd(left, right): the entries of left having at least one
// proper descendant in right.
func Desc(left, right Query) Query { return binQ{opDesc, left, right} }

// Anc returns δa(left, right): the entries of left having at least one
// proper ancestor in right.
func Anc(left, right Query) Query { return binQ{opAnc, left, right} }

// Minus returns σ−(left, right): the entries of left that are not in
// right.
func Minus(left, right Query) Query { return binQ{opMinus, left, right} }

func (q binQ) size() int { return 1 + q.left.size() + q.right.size() }

func (q binQ) writeTo(sb *strings.Builder) {
	sb.WriteByte('(')
	sb.WriteString(opNames[q.kind])
	sb.WriteByte(' ')
	q.left.writeTo(sb)
	sb.WriteByte(' ')
	q.right.writeTo(sb)
	sb.WriteByte(')')
}

// joinTrace is what Stats records of how one operator ran: its operand
// sizes (-1 for an operand it did not materialize), and whether the right
// operand was evaluated first.
type joinTrace struct {
	left, right int
	rightFirst  bool
}

func (q binQ) eval(b Binding, st *Stats, depth int) []*dirtree.Entry {
	j := joinTrace{left: -1, right: -1}
	out, strategy := q.run(b, st, depth+1, &j)
	st.join(q, strategy, j, len(out), depth)
	return out
}

// run evaluates the operator, noting operand sizes in j, and names the
// strategy it took; depth is its operands'.
//
// Skew-aware fast paths: when one operand is an atomic selection over a
// much larger instance than the other operand's result, probe the atom
// per candidate instead of materializing it. This keeps the Figure 5
// incremental checks O(|Δ|) even though their queries mix Δ atoms with
// full-instance atoms (e.g. the pa/an rows and the forbidden rows), while
// changing nothing semantically.
func (q binQ) run(b Binding, st *Stats, depth int, j *joinTrace) ([]*dirtree.Entry, string) {
	if q.kind == opChild || q.kind == opDesc {
		if m, ok := atomMatcher(q.left, b); ok {
			j.rightFirst = true
			right := q.right.eval(b, st, depth)
			if j.right = len(right); j.right == 0 {
				st.skip(q.left, depth)
				return nil, "short-circuit"
			}
			if skewed(len(right), m.size) {
				st.atom(m.q, sPlan{strategy: "matcher", est: m.size}, -1, depth)
				if q.kind == opChild {
					return probeChild(m, right), "probe-child"
				}
				return probeDesc(m, right), "probe-desc"
			}
			left := q.left.eval(b, st, depth)
			j.left = len(left)
			return q.merge(left, right)
		}
	}

	left := q.left.eval(b, st, depth)
	if j.left = len(left); j.left == 0 {
		st.skip(q.right, depth)
		return nil, "short-circuit"
	}
	if q.kind == opParent || q.kind == opAnc {
		if m, ok := atomMatcher(q.right, b); ok && skewed(len(left), m.size) {
			st.atom(m.q, sPlan{strategy: "matcher", est: m.size}, -1, depth)
			if q.kind == opParent {
				return probeParent(left, m), "probe-parent"
			}
			return probeAnc(left, m), "probe-anc"
		}
	}
	right := q.right.eval(b, st, depth)
	j.right = len(right)
	return q.merge(left, right)
}

// merge combines two materialized operands.
func (q binQ) merge(left, right []*dirtree.Entry) ([]*dirtree.Entry, string) {
	switch q.kind {
	case opChild:
		return joinChild(left, right), "hash-parents"
	case opParent:
		return joinParent(left, right), "hash"
	case opDesc:
		return joinDesc(left, right), "merge"
	case opAnc:
		return joinAnc(left, right), "staircase"
	}
	return diff(left, right), "diff"
}

// skewed decides whether probing the atom per candidate beats
// materializing it.
func skewed(small, atomSize int) bool { return small*8 < atomSize }

// matcher tests membership in an atomic selection without evaluating it.
type matcher struct {
	v    dirtree.View
	q    selectQ
	size int
}

func (m matcher) match(e *dirtree.Entry) bool {
	return m.v.Contains(e) && m.q.f.Matches(e)
}

// atomMatcher recognizes an atomic selection operand and returns a
// membership tester plus a cheap upper bound on its result size. The
// bound is the planner's cardinality estimate, so index-servable atoms
// (not just bare class atoms) enable the skewed probe paths.
func atomMatcher(q Query, b Binding) (matcher, bool) {
	sel, ok := q.(selectQ)
	if !ok {
		return matcher{}, false
	}
	v := b.view(sel.inst)
	size := 0
	if !v.IsEmptyView() {
		size = planSelect(sel.f, v).est
	}
	return matcher{v: v, q: sel, size: size}, true
}

// probeParent keeps the left entries whose parent matches the right atom.
// O(|L|).
func probeParent(left []*dirtree.Entry, m matcher) []*dirtree.Entry {
	var out []*dirtree.Entry
	for _, l := range left {
		if p := l.Parent(); p != nil && m.match(p) {
			out = append(out, l)
		}
	}
	return out
}

// probeAnc keeps the left entries having a proper ancestor matching the
// right atom. O(|L|·depth).
func probeAnc(left []*dirtree.Entry, m matcher) []*dirtree.Entry {
	var out []*dirtree.Entry
	for _, l := range left {
		for p := l.Parent(); p != nil; p = p.Parent() {
			if m.match(p) {
				out = append(out, l)
				break
			}
		}
	}
	return out
}

// probeChild returns the entries matching the left atom that have a child
// in right: the candidates are the parents of right. O(|R| log |R|).
func probeChild(m matcher, right []*dirtree.Entry) []*dirtree.Entry {
	seen := make(map[*dirtree.Entry]struct{}, len(right))
	var out []*dirtree.Entry
	for _, r := range right {
		p := r.Parent()
		if p == nil {
			continue
		}
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		if m.match(p) {
			out = append(out, p)
		}
	}
	sortByPre(out)
	return out
}

// probeDesc returns the entries matching the left atom that have a proper
// descendant in right: the candidates are the ancestors of right entries.
// O(|R|·depth) before deduplication.
func probeDesc(m matcher, right []*dirtree.Entry) []*dirtree.Entry {
	seen := make(map[*dirtree.Entry]struct{})
	var out []*dirtree.Entry
	for _, r := range right {
		for p := r.Parent(); p != nil; p = p.Parent() {
			if _, dup := seen[p]; dup {
				break // all higher ancestors were visited already
			}
			seen[p] = struct{}{}
			if m.match(p) {
				out = append(out, p)
			}
		}
	}
	sortByPre(out)
	return out
}

func sortByPre(es []*dirtree.Entry) {
	slices.SortFunc(es, func(a, b *dirtree.Entry) int { return cmp.Compare(a.Pre(), b.Pre()) })
}

// joinChild keeps the left entries having a child in right: hash the
// parents of right, probe with left. O(|L|+|R|).
func joinChild(left, right []*dirtree.Entry) []*dirtree.Entry {
	if len(right) == 0 {
		return nil
	}
	parents := make(map[*dirtree.Entry]struct{}, len(right))
	for _, r := range right {
		if p := r.Parent(); p != nil {
			parents[p] = struct{}{}
		}
	}
	var out []*dirtree.Entry
	for _, l := range left {
		if _, ok := parents[l]; ok {
			out = append(out, l)
		}
	}
	return out
}

// joinParent keeps the left entries whose parent is in right. O(|L|+|R|).
func joinParent(left, right []*dirtree.Entry) []*dirtree.Entry {
	if len(right) == 0 {
		return nil
	}
	set := make(map[*dirtree.Entry]struct{}, len(right))
	for _, r := range right {
		set[r] = struct{}{}
	}
	var out []*dirtree.Entry
	for _, l := range left {
		if p := l.Parent(); p != nil {
			if _, ok := set[p]; ok {
				out = append(out, l)
			}
		}
	}
	return out
}

// joinDesc keeps the left entries having a proper descendant in right.
// Both inputs are pre-sorted; a two-pointer merge suffices because the
// witness for each l is the first right entry with pre > l.pre.
// O(|L|+|R|).
func joinDesc(left, right []*dirtree.Entry) []*dirtree.Entry {
	var out []*dirtree.Entry
	j := 0
	for _, l := range left {
		for j < len(right) && right[j].Pre() <= l.Pre() {
			j++
		}
		if j < len(right) && right[j].Pre() <= l.Post() {
			out = append(out, l)
		}
	}
	return out
}

// joinAnc keeps the left entries having a proper ancestor in right, via a
// staircase sweep maintaining the stack of right intervals open at the
// current pre rank. O(|L|+|R|).
func joinAnc(left, right []*dirtree.Entry) []*dirtree.Entry {
	var out []*dirtree.Entry
	var stack []*dirtree.Entry
	j := 0
	for _, l := range left {
		for j < len(right) && right[j].Pre() < l.Pre() {
			for len(stack) > 0 && stack[len(stack)-1].Post() < right[j].Pre() {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, right[j])
			j++
		}
		for len(stack) > 0 && stack[len(stack)-1].Post() < l.Pre() {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			// The top is open at l.Pre() and started strictly before it,
			// so it is a proper ancestor.
			out = append(out, l)
		}
	}
	return out
}

// diff returns left minus right over pre-sorted inputs. O(|L|+|R|).
func diff(left, right []*dirtree.Entry) []*dirtree.Entry {
	if len(right) == 0 {
		return left
	}
	var out []*dirtree.Entry
	j := 0
	for _, l := range left {
		for j < len(right) && right[j].Pre() < l.Pre() {
			j++
		}
		if j < len(right) && right[j] == l {
			continue
		}
		out = append(out, l)
	}
	return out
}
