package dirtree

// Incremental maintenance of the interval encoding.
//
// The paper's Δ-queries (Theorem 4.1, Figure 5) cost O(|Δ|) only if the
// auxiliary structures they run over — the pre/post interval encoding and
// the per-class posting lists — are maintained in O(|Δ|) too. Rebuilding
// them from the roots after every mutation silently re-introduces an
// O(|D|) term per transaction, which once made journal replay
// superlinear (internal/server's replay-cost ratchet pins it).
//
// A directory is building until its first EnsureEncoded or ranked read,
// and sealed from then on (directory.go). A building directory ranks
// nothing, so its mutations have nothing to patch. A sealed directory
// patches the encoding in place on every mutation, and nothing makes it
// stale again. Because update granularity is a single subtree Δ
// (Theorem 4.1) and Δ occupies a contiguous pre-order interval, every
// mutation is a splice:
//
//   - inserting a subtree of k entries at pre-rank p shifts the ranks of
//     the entries at or after p up by k, grows the post of Δ's ancestors
//     by k, and splices Δ's entries (ranked by a local walk) into the
//     pre-order slice and their posting lists;
//   - deleting the subtree [lo, hi] does the reverse;
//   - class membership changes splice one entry into or out of one
//     posting list, ranks untouched;
//   - attribute-value changes do not touch the encoding at all.
//
// Cost is O(|Δ| + s) where s is the suffix of the pre-order at or after
// the splice point (entries whose ranks shift) — O(|Δ|) for the common
// append-at-the-end workloads, O(|D|) only for a splice near rank 0,
// never worse than a full re-encode. A graft links its whole copy first
// and splices it once; a graft that fails midway unlinks what it linked
// before the encoding sees it. The differential test in
// incremental_test.go holds the maintained encoding and an independent
// walk identical after every op.

// patchable reports whether a mutation must patch the encoding in place:
// the directory is sealed and no bulk graft is assembling a subtree
// (GraftSubtree patches once at the end instead).
func (d *Directory) patchable() bool {
	return d.sealed && !d.grafting
}

// patchInsert splices a freshly linked subtree into the current
// encoding. root must already hang off its parent (or the root list),
// with none of its entries in the pre-order slice or the posting lists
// yet — the shape add and GraftSubtreeAt produce.
func (d *Directory) patchInsert(root *Entry) {
	sub := make([]*Entry, 0, 8)
	var collect func(e *Entry)
	collect = func(e *Entry) {
		sub = append(sub, e)
		for _, c := range e.children {
			collect(c)
		}
	}
	collect(root)
	k := len(sub)

	// Insertion rank and depth: at the next sibling's rank, or, for a last
	// child, right after the parent's current subtree (after everything
	// for a last forest root).
	p, depth := len(d.order), 0
	sibs := d.roots
	if par := root.parent; par != nil {
		p, depth = par.post+1, par.depth+1
		sibs = par.children
	}
	if sibs[len(sibs)-1] != root {
		for i, s := range sibs {
			if s == root {
				p = sibs[i+1].pre
				break
			}
		}
	}

	// Entries at or after the splice point shift up; the new subtree's
	// ancestors grow to cover it. The two sets are disjoint (an ancestor's
	// pre-rank precedes p by definition).
	for _, e := range d.order[p:] {
		e.pre += k
		e.post += k
	}
	for a := root.parent; a != nil; a = a.parent {
		a.post += k
	}

	// Rank the new subtree with a local pre-order walk.
	pre := p
	var assign func(e *Entry, depth int)
	assign = func(e *Entry, depth int) {
		e.pre, e.depth = pre, depth
		pre++
		for _, c := range e.children {
			assign(c, depth+1)
		}
		e.post = pre - 1
	}
	assign(root, depth)

	// Splice into the pre-order slice (copy handles the overlap).
	d.order = append(d.order, sub...)
	copy(d.order[p+k:], d.order[p:len(d.order)-k])
	copy(d.order[p:], sub)

	// Posting lists: sub is in pre-order, so repeated insertion keeps
	// each list sorted.
	for _, e := range sub {
		for _, c := range e.cls.Names {
			d.insertPosting(c, e)
		}
	}
	// Value indexes: ranks are assigned, so postings land in order. The
	// suffix rank shift above never reorders existing postings.
	d.patchValueInsert(sub)
}

// patchDelete splices the subtree rooted at root out of the current
// encoding. Must run BEFORE the subtree is detached, while its interval
// [root.pre, root.post] is still valid.
func (d *Directory) patchDelete(root *Entry) {
	lo, hi := root.pre, root.post
	k := hi - lo + 1

	// Posting lists and value indexes first, while the doomed entries'
	// ranks still locate them: one contiguous splice per class occurring
	// in the subtree, one tree removal per (value, entry) posting.
	d.patchValueDelete(d.order[lo : hi+1])
	classes := make(map[string]struct{})
	for _, e := range d.order[lo : hi+1] {
		for _, c := range e.cls.Names {
			classes[c] = struct{}{}
		}
	}
	for c := range classes {
		list := d.classIndex[c]
		a, b := rangeWithin(list, lo, hi)
		list = append(list[:a], list[b:]...)
		if len(list) == 0 {
			delete(d.classIndex, c) // the sealing walk never materializes empty lists
		} else {
			d.classIndex[c] = list
		}
	}

	for a := root.parent; a != nil; a = a.parent {
		a.post -= k
	}
	for _, e := range d.order[hi+1:] {
		e.pre -= k
		e.post -= k
	}
	d.order = append(d.order[:lo], d.order[hi+1:]...)
}

// insertPosting adds e (whose pre rank is current) to class c's posting
// list, keeping it sorted by pre-order rank.
func (d *Directory) insertPosting(c string, e *Entry) {
	list := d.classIndex[c]
	i := searchPre(list, e.pre)
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = e
	d.classIndex[c] = list
}

// removePosting removes e from class c's posting list, dropping the list
// entirely when it empties (matching what the sealing walk would build).
func (d *Directory) removePosting(c string, e *Entry) {
	list := d.classIndex[c]
	i := searchPre(list, e.pre)
	if i < len(list) && list[i] == e {
		list = append(list[:i], list[i+1:]...)
	}
	if len(list) == 0 {
		delete(d.classIndex, c)
	} else {
		d.classIndex[c] = list
	}
}
