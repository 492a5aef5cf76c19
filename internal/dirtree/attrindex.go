package dirtree

// Attribute-value secondary indexes.
//
// The paper closes (§7) by noting that "query optimization is facilitated
// using schema"; the concrete gap is that every non-class σ(filter) atom
// pays the full |D| scan that Theorem 3.1 budgets for the *whole* query.
// This file gives each attribute an ordered in-memory B+tree keyed by the
// typed Value (so integer and telephone attributes sort semantically, per
// the registry's τ), mapping each distinct value to its posting list of
// entries sorted by pre-order label — the same document order the class
// posting lists use, so index results splice into hierarchical joins and
// views without re-sorting.
//
// Maintenance mirrors the interval-encoding patcher (patch.go):
//
//   - trees are built lazily, per attribute, on first probe
//     (Directory.valueTree), from one pre-order walk; the probe seals a
//     building directory first, so trees exist only on a sealed one;
//   - structural splices (patchInsert/patchDelete) insert or remove the
//     moved subtree's postings; relabels of surviving entries never
//     reorder a posting list, because relative pre-order is preserved;
//   - value-only writes (AddValue/SetValues/RemoveValue) patch the tree
//     of the touched attribute in place.
//
// A sealed directory stays sealed, so a built tree is never stale and is
// never dropped. Because every transactional path (txn apply and undo,
// journal replay, replica apply, PROMOTE) mutates the directory
// exclusively through these primitives, the value indexes stay
// consistent through commit, rollback, recovery and replication with no
// extra bookkeeping.
//
// Concurrency: probing an attribute for the first time builds its tree,
// which writes to the directory even on the read path. Builds are
// serialized by attrMu, so concurrent read-only use of a sealed
// directory stays safe; mutation paths touch the trees only under the
// caller's exclusive access, as for every other directory mutation.

import (
	"cmp"
	"slices"
	"sort"
)

// bpOrder is the maximum number of keys per B+tree node.
const bpOrder = 32

// bptree is a counted B+tree mapping typed attribute values to posting
// lists of entries sorted by pre-order label. Internal nodes cache the
// number of postings under each child, giving exact O(log n) cardinality
// for any key range — the planner's cost estimates are not estimates at
// all.
type bptree struct {
	root    *bpnode
	pairs   int // total (value, entry) postings
	nonText int // postings whose key is not string-ish (gates prefix probes)
	// exact is a hash sidecar over the leaf keys: each distinct key maps
	// to the very posting slice its leaf holds, so equality probes (the
	// dominant SEARCH shape) cost one hash lookup instead of a descent —
	// at 10^6 entries the descent is several cache-missing node hops and
	// shows up directly in point-SEARCH latency (EXPERIMENTS.md E20; the
	// flat probe is pinned by TestValueIndexProbeIsFlat). Map keys
	// are the stored leaf keys; a probe Value that is Compare-equal but
	// not structurally identical may miss and falls back to the descent.
	exact map[Value][]*Entry
}

type bpnode struct {
	leaf  bool
	keys  []Value
	posts [][]*Entry // leaf: posting per key, sorted by pre
	kids  []*bpnode  // internal: len(kids) == len(keys)+1
	count []int      // internal: postings under each kid
	next  *bpnode    // leaf chain, left to right
}

// textSafe reports whether the value's String() form equals the payload
// the total order compares, so byte-range bounds on the tree agree with
// textual prefix matching.
func textSafe(v Value) bool {
	switch v.typ {
	case typeString, TypeDN, TypeTel:
		return true
	}
	return false
}

func (t *bptree) insert(v Value, e *Entry) {
	if t.root == nil {
		t.root = &bpnode{leaf: true}
	}
	if t.exact == nil {
		t.exact = make(map[Value][]*Entry)
	}
	added, sib, sep := t.insertRec(t.root, v, e)
	if sib != nil {
		t.root = &bpnode{
			kids:  []*bpnode{t.root, sib},
			keys:  []Value{sep},
			count: []int{subCount(t.root), subCount(sib)},
		}
	}
	if added {
		t.pairs++
		if !textSafe(v) {
			t.nonText++
		}
	}
}

func subCount(n *bpnode) int {
	if n.leaf {
		s := 0
		for _, p := range n.posts {
			s += len(p)
		}
		return s
	}
	s := 0
	for _, c := range n.count {
		s += c
	}
	return s
}

// insertRec inserts the posting into n's subtree. It reports whether a
// new posting was added (the insert is idempotent) and, when n split, the
// new right sibling with its separator key.
func (t *bptree) insertRec(n *bpnode, v Value, e *Entry) (added bool, sib *bpnode, sep Value) {
	if n.leaf {
		i := sort.Search(len(n.keys), func(j int) bool { return n.keys[j].Compare(v) >= 0 })
		if i < len(n.keys) && n.keys[i].Compare(v) == 0 {
			p := n.posts[i]
			j := searchPre(p, e.pre)
			if j < len(p) && p[j] == e {
				return false, nil, Value{} // already present
			}
			p = append(p, nil)
			copy(p[j+1:], p[j:])
			p[j] = e
			n.posts[i] = p
			t.exact[n.keys[i]] = p
		} else {
			n.keys = append(n.keys, Value{})
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = v
			n.posts = append(n.posts, nil)
			copy(n.posts[i+1:], n.posts[i:])
			n.posts[i] = []*Entry{e}
			t.exact[v] = n.posts[i]
		}
		if len(n.keys) > bpOrder {
			mid := len(n.keys) / 2
			s := &bpnode{
				leaf:  true,
				keys:  append([]Value(nil), n.keys[mid:]...),
				posts: append([][]*Entry(nil), n.posts[mid:]...),
				next:  n.next,
			}
			n.keys = n.keys[:mid]
			n.posts = n.posts[:mid]
			n.next = s
			return true, s, s.keys[0]
		}
		return true, nil, Value{}
	}

	// Internal: keys in kids[i] are < keys[i] <= keys in kids[i+1].
	i := sort.Search(len(n.keys), func(j int) bool { return v.Compare(n.keys[j]) < 0 })
	added, csib, csep := t.insertRec(n.kids[i], v, e)
	if csib != nil {
		n.keys = append(n.keys, Value{})
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = csep
		n.kids = append(n.kids, nil)
		copy(n.kids[i+2:], n.kids[i+1:])
		n.kids[i+1] = csib
		n.count = append(n.count, 0)
		copy(n.count[i+2:], n.count[i+1:])
		n.count[i] = subCount(n.kids[i])
		n.count[i+1] = subCount(csib)
	} else if added {
		n.count[i]++
	}
	if len(n.keys) > bpOrder {
		mid := len(n.keys) / 2
		sep = n.keys[mid]
		s := &bpnode{
			keys:  append([]Value(nil), n.keys[mid+1:]...),
			kids:  append([]*bpnode(nil), n.kids[mid+1:]...),
			count: append([]int(nil), n.count[mid+1:]...),
		}
		n.keys = n.keys[:mid]
		n.kids = n.kids[:mid+1]
		n.count = n.count[:mid+1]
		return added, s, sep
	}
	return added, nil, Value{}
}

// remove deletes the (v, e) posting if present. Keys whose posting
// empties are dropped; nodes are never merged (stale separators still
// partition correctly, matching the no-rebalance class posting lists).
// e's pre label must still be current.
func (t *bptree) remove(v Value, e *Entry) {
	if t.root == nil {
		return
	}
	if t.removeRec(t.root, v, e) {
		t.pairs--
		if !textSafe(v) {
			t.nonText--
		}
	}
}

func (t *bptree) removeRec(n *bpnode, v Value, e *Entry) bool {
	if n.leaf {
		i := sort.Search(len(n.keys), func(j int) bool { return n.keys[j].Compare(v) >= 0 })
		if i >= len(n.keys) || n.keys[i].Compare(v) != 0 {
			return false
		}
		p := n.posts[i]
		j := searchPre(p, e.pre)
		if j >= len(p) || p[j] != e {
			return false
		}
		p = append(p[:j:j], p[j+1:]...)
		if len(p) == 0 {
			delete(t.exact, n.keys[i])
			n.keys = append(n.keys[:i:i], n.keys[i+1:]...)
			n.posts = append(n.posts[:i:i], n.posts[i+1:]...)
		} else {
			n.posts[i] = p
			t.exact[n.keys[i]] = p
		}
		return true
	}
	i := sort.Search(len(n.keys), func(j int) bool { return v.Compare(n.keys[j]) < 0 })
	if t.removeRec(n.kids[i], v, e) {
		n.count[i]--
		return true
	}
	return false
}

// lookup returns the posting list for the exact key, or nil. The slice is
// owned by the tree and must not be modified. The hash sidecar answers in
// O(1); the descent remains as the fallback for Compare-equal probe
// values that are not structurally identical to the stored key.
func (t *bptree) lookup(v Value) []*Entry {
	if p, ok := t.exact[v]; ok {
		return p
	}
	n := t.root
	for n != nil && !n.leaf {
		i := sort.Search(len(n.keys), func(j int) bool { return v.Compare(n.keys[j]) < 0 })
		n = n.kids[i]
	}
	if n == nil {
		return nil
	}
	i := sort.Search(len(n.keys), func(j int) bool { return n.keys[j].Compare(v) >= 0 })
	if i < len(n.keys) && n.keys[i].Compare(v) == 0 {
		return n.posts[i]
	}
	return nil
}

// scanFrom calls fn for every (key, posting) pair with key >= lo (or from
// the smallest key when lo is nil), in key order, until fn returns false.
func (t *bptree) scanFrom(lo *Value, fn func(k Value, posting []*Entry) bool) {
	n := t.root
	for n != nil && !n.leaf {
		i := 0
		if lo != nil {
			i = sort.Search(len(n.keys), func(j int) bool { return lo.Compare(n.keys[j]) < 0 })
		}
		n = n.kids[i]
	}
	for ; n != nil; n = n.next {
		for i, k := range n.keys {
			if lo != nil && k.Compare(*lo) < 0 {
				continue
			}
			if !fn(k, n.posts[i]) {
				return
			}
		}
	}
}

// countLess returns the number of postings whose key is < v (<= v when
// orEq). O(log n) via the per-child counts.
func (t *bptree) countLess(v Value, orEq bool) int {
	s := 0
	for n := t.root; n != nil; {
		if n.leaf {
			i := sort.Search(len(n.keys), func(j int) bool {
				c := n.keys[j].Compare(v)
				if orEq {
					return c > 0
				}
				return c >= 0
			})
			for _, p := range n.posts[:i] {
				s += len(p)
			}
			return s
		}
		i := sort.Search(len(n.keys), func(j int) bool { return n.keys[j].Compare(v) > 0 })
		for _, c := range n.count[:i] {
			s += c
		}
		n = n.kids[i]
	}
	return s
}

// countRange returns the number of postings with lo <= key <= hi; a nil
// bound is unbounded on that side.
func (t *bptree) countRange(lo, hi *Value) int {
	upper := t.pairs
	if hi != nil {
		upper = t.countLess(*hi, true)
	}
	if lo != nil {
		return upper - t.countLess(*lo, false)
	}
	return upper
}

// prefixUpper returns the smallest value of type tt that no string with
// the given prefix can reach: the prefix with its last non-0xff byte
// incremented, or the smallest value of the next type tag when the prefix
// is all 0xff bytes. Sound because Compare on string-ish types is
// bytewise on the same payload String() renders.
func prefixUpper(tt Type, p string) Value {
	b := []byte(p)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xff {
			b[i]++
			return Value{typ: tt, s: string(b[:i+1])}
		}
	}
	return Value{typ: tt + 1}
}

// textTypes are the type tags whose Compare order is bytewise on the
// rendered text, in tag order.
var textTypes = [...]Type{typeString, TypeDN, TypeTel}

// ---------------------------------------------------------------------
// Directory integration.

// valueTree returns the (built) value index for attr, building it from
// one pre-order walk on first probe. Builds are serialized by attrMu so
// concurrent read-only evaluation stays safe; see the package comment.
func (d *Directory) valueTree(attr string) *bptree {
	d.EnsureEncoded()
	d.attrMu.Lock()
	defer d.attrMu.Unlock()
	if t, ok := d.attrTrees[attr]; ok {
		return t
	}
	t := d.buildValueTree(attr)
	if d.attrTrees == nil {
		d.attrTrees = make(map[string]*bptree)
	}
	d.attrTrees[attr] = t
	return t
}

// buildValueTree bulk-loads attr's tree from the current pre-order. It
// sorts the (value, entry) pairs once by value then pre label — the order
// a stable sort of the pre-order collection gives, since pre labels are
// unique — so every posting list comes out sorted by pre label. Keys,
// postings and leaves each live in one allocation: a posting is a
// cap-limited window of one shared backing array, so insertRec and
// removeRec reallocate it rather than write into a neighbour's.
func (d *Directory) buildValueTree(attr string) *bptree {
	type kv struct {
		v Value
		e *Entry
	}
	t := &bptree{}
	total := 0
	for _, e := range d.order {
		total += len(e.attrs[attr])
	}
	if total == 0 {
		return t
	}
	pairs := make([]kv, 0, total)
	for _, e := range d.order {
		for _, v := range e.attrs[attr] {
			pairs = append(pairs, kv{v, e})
		}
	}
	slices.SortFunc(pairs, func(a, b kv) int {
		if c := a.v.Compare(b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.e.pre, b.e.pre)
	})

	// Group into unique keys with their postings, dropping duplicate
	// (value, entry) pairs (SetValues stores values verbatim, so an entry
	// may hold the same value twice; the index is a set). Duplicates are
	// adjacent after the sort.
	distinct := 1
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].v.Compare(pairs[i].v) != 0 {
			distinct++
		}
	}
	keys := make([]Value, 0, distinct)
	posts := make([][]*Entry, 0, distinct)
	backing := make([]*Entry, 0, len(pairs))
	for i := 0; i < len(pairs); {
		k := pairs[i].v
		start := len(backing)
		for ; i < len(pairs) && pairs[i].v.Compare(k) == 0; i++ {
			if len(backing) == start || backing[len(backing)-1] != pairs[i].e {
				backing = append(backing, pairs[i].e)
			}
		}
		keys = append(keys, k)
		posts = append(posts, backing[start:len(backing):len(backing)])
	}
	t.pairs = len(backing)
	t.exact = make(map[Value][]*Entry, len(keys))
	for i, k := range keys {
		t.exact[k] = posts[i]
		if !textSafe(k) {
			t.nonText += len(posts[i])
		}
	}

	// Build leaves left to right at ~3/4 fill, then internal levels
	// bottom-up.
	const fill = bpOrder * 3 / 4
	leaves := make([]bpnode, (len(keys)+fill-1)/fill)
	level := make([]*bpnode, len(leaves))
	seps := make([]Value, 0, len(leaves)) // smallest key of each node after the first
	for l := range leaves {
		i := l * fill
		j := min(i+fill, len(keys))
		n := &leaves[l]
		*n = bpnode{leaf: true, keys: keys[i:j:j], posts: posts[i:j:j]}
		if l > 0 {
			level[l-1].next = n
			seps = append(seps, n.keys[0])
		}
		level[l] = n
	}
	for len(level) > 1 {
		up := make([]*bpnode, 0, (len(level)+fill)/(fill+1))
		upSeps := make([]Value, 0, cap(up))
		for i := 0; i < len(level); i += fill + 1 {
			j := min(i+fill+1, len(level))
			n := &bpnode{
				kids:  level[i:j:j],
				keys:  seps[i : j-1 : j-1],
				count: make([]int, j-i),
			}
			for k, kid := range n.kids {
				n.count[k] = subCount(kid)
			}
			if len(up) > 0 {
				upSeps = append(upSeps, smallestKey(n))
			}
			up = append(up, n)
		}
		level, seps = up, upSeps
	}
	t.root = level[0]
	return t
}

func smallestKey(n *bpnode) Value {
	for !n.leaf {
		n = n.kids[0]
	}
	return n.keys[0]
}

// ValueEntries returns the entries holding exactly v (same type and
// payload) for attr, sorted by pre-order. The slice is owned by the
// index and must not be modified.
func (d *Directory) ValueEntries(attr string, v Value) []*Entry {
	return d.valueTree(attr).lookup(v)
}

// ValueCount returns the number of entries holding exactly v for attr.
func (d *Directory) ValueCount(attr string, v Value) int {
	return len(d.valueTree(attr).lookup(v))
}

// ValueRangeEntries returns the entries holding at least one attr value
// in [lo, hi] under the total value order (nil bounds are unbounded),
// deduplicated and sorted by pre-order. The slice is freshly allocated.
func (d *Directory) ValueRangeEntries(attr string, lo, hi *Value) []*Entry {
	t := d.valueTree(attr)
	var out []*Entry
	t.scanFrom(lo, func(k Value, posting []*Entry) bool {
		if hi != nil && k.Compare(*hi) > 0 {
			return false
		}
		out = append(out, posting...)
		return true
	})
	return dedupByPre(out)
}

// ValueRangeCount returns the number of (value, entry) postings in
// [lo, hi] — an exact upper bound on ValueRangeEntries' length, in
// O(log n).
func (d *Directory) ValueRangeCount(attr string, lo, hi *Value) int {
	return d.valueTree(attr).countRange(lo, hi)
}

// ValuePrefixEntries returns the entries holding an attr value whose text
// begins with prefix, deduplicated and sorted by pre-order. The second
// result is false when the index cannot answer exactly — some postings
// have keys (integers, booleans) whose rendered text does not follow the
// tree's byte order — in which case callers must fall back to scanning.
func (d *Directory) ValuePrefixEntries(attr, prefix string) ([]*Entry, bool) {
	t := d.valueTree(attr)
	if t.nonText > 0 {
		return nil, false
	}
	var out []*Entry
	for _, tt := range textTypes {
		lo := Value{typ: tt, s: prefix}
		hi := prefixUpper(tt, prefix)
		t.scanFrom(&lo, func(k Value, posting []*Entry) bool {
			if k.Compare(hi) >= 0 {
				return false
			}
			out = append(out, posting...)
			return true
		})
	}
	return dedupByPre(out), true
}

// ValuePrefixCount returns the number of postings whose text begins with
// prefix, in O(log n); false when the index cannot answer exactly.
func (d *Directory) ValuePrefixCount(attr, prefix string) (int, bool) {
	t := d.valueTree(attr)
	if t.nonText > 0 {
		return 0, false
	}
	s := 0
	for _, tt := range textTypes {
		lo := Value{typ: tt, s: prefix}
		hi := prefixUpper(tt, prefix)
		s += t.countLess(hi, false) - t.countLess(lo, false)
	}
	return s, true
}

// ValuePairs returns the total number of (value, entry) postings indexed
// for attr — the size of its value index.
func (d *Directory) ValuePairs(attr string) int {
	return d.valueTree(attr).pairs
}

// dedupByPre sorts entries by pre-order label and removes duplicates
// (entries reached through several values) in place.
func dedupByPre(out []*Entry) []*Entry {
	if len(out) < 2 {
		return out
	}
	slices.SortFunc(out, func(a, b *Entry) int { return cmp.Compare(a.pre, b.pre) })
	w := 1
	for _, e := range out[1:] {
		if out[w-1] != e {
			out[w] = e
			w++
		}
	}
	return out[:w]
}

// ---------------------------------------------------------------------
// Maintenance hooks, called from the mutation paths.

// valueHooksLive reports whether any value tree exists; when false there
// is nothing to patch (the first probe builds from the current values).
func (d *Directory) valueHooksLive() bool { return len(d.attrTrees) > 0 }

// noteValueAdded patches attr's tree after v was appended to e.
func (d *Directory) noteValueAdded(e *Entry, name string, v Value) {
	if d == nil || !d.valueHooksLive() {
		return
	}
	if t := d.attrTrees[name]; t != nil {
		t.insert(v, e)
	}
}

// noteValueRemoved patches attr's tree after v was removed from e. The
// posting survives while another occurrence of the same value remains
// (SetValues can store duplicates).
func (d *Directory) noteValueRemoved(e *Entry, name string, v Value) {
	if d == nil || !d.valueHooksLive() {
		return
	}
	t := d.attrTrees[name]
	if t == nil {
		return
	}
	for _, have := range e.attrs[name] {
		if have.Equal(v) {
			return
		}
	}
	t.remove(v, e)
}

// noteValuesReplaced patches attr's tree after SetValues swapped e's
// whole value set; old is the previous slice.
func (d *Directory) noteValuesReplaced(e *Entry, name string, old []Value) {
	if d == nil || !d.valueHooksLive() {
		return
	}
	t := d.attrTrees[name]
	if t == nil {
		return
	}
	now := e.attrs[name]
	for _, v := range old {
		kept := false
		for _, w := range now {
			if w.Equal(v) {
				kept = true
				break
			}
		}
		if !kept {
			t.remove(v, e)
		}
	}
	for _, v := range now {
		t.insert(v, e) // idempotent
	}
}

// patchValueInsert indexes every attribute value of a freshly spliced
// subtree (patchInsert has already assigned current pre labels).
func (d *Directory) patchValueInsert(sub []*Entry) {
	if !d.valueHooksLive() {
		return
	}
	for _, e := range sub {
		for name, vs := range e.attrs {
			if t := d.attrTrees[name]; t != nil {
				for _, v := range vs {
					t.insert(v, e)
				}
			}
		}
	}
}

// patchValueDelete unindexes every attribute value of a subtree about to
// be spliced out (pre labels still current).
func (d *Directory) patchValueDelete(doomed []*Entry) {
	if !d.valueHooksLive() {
		return
	}
	for _, e := range doomed {
		for name, vs := range e.attrs {
			if t := d.attrTrees[name]; t != nil {
				for _, v := range vs {
					t.remove(v, e)
				}
			}
		}
	}
}
