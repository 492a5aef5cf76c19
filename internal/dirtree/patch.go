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
// A directory is building until its first EnsureEncoded or labeled read,
// and sealed from then on (directory.go). A building directory labels
// nothing, so its mutations have nothing to patch. A sealed directory
// patches the encoding in place on every mutation, and nothing makes it
// stale again. Because update granularity is a single subtree Δ
// (Theorem 4.1) and Δ occupies a contiguous run of the pre-order, every
// mutation is a splice.
//
// pre and post are gapped order labels, not dense ranks: only their
// order is meaningful (interval containment, posting-list order,
// value-index order). Sealing spreads the labels evenly over
// [0, 1<<labelBits). This is the list-labeling scheme of Bender, Cole,
// Demaine, Farach-Colton and Zito ("Two Simplified Algorithms for
// Maintaining Order in a List", ESA 2002):
//
//   - inserting a subtree of k entries splices them into the pre-order
//     slice and spaces their labels inside the gap between their
//     neighbours. When the gap is too small, it relabels the smallest
//     aligned window of 2^i labels around the splice point that holds at
//     most (2/T)^i entries, spreading them evenly: amortised O(log |D|)
//     labels per inserted entry;
//   - deleting a subtree relabels nothing;
//   - post is the largest pre label in the subtree, i.e. the label of
//     the subtree's last leaf, so only the chain of last children above
//     a leaf whose label changed has posts to fix (fixPosts);
//   - class membership changes splice one entry into or out of one
//     posting list, labels untouched;
//   - attribute-value changes do not touch the encoding at all.
//
// Cost is amortised O(|Δ| + log |D|) labels written, plus the memmove of
// the pre-order slice and the posting lists (O(|D|) bytes, no pointer
// chasing). A graft links its whole copy first and splices it once; a
// graft that fails midway unlinks what it linked before the encoding
// sees it. The differential test in incremental_test.go holds the
// maintained encoding and an independent walk in the same order after
// every op.

// labelBits sizes the label space [0, 1<<labelBits).
const labelBits = 62

// windowCap[i] is the most entries a relabeled window of 2^i labels may
// hold: (2/T)^i, Bender et al.'s density threshold T^-i with T = 1.5.
var windowCap = func() (c [labelBits + 1]int) {
	f := 1.0
	for i := range c {
		c[i] = int(f)
		f *= 2 / 1.5
	}
	return c
}()

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
	var collect func(e *Entry, depth int)
	collect = func(e *Entry, depth int) {
		e.depth = depth
		sub = append(sub, e)
		for _, c := range e.children {
			collect(c, depth+1)
		}
	}
	// Splice index: the next sibling's, or, for a last child, right after
	// the parent's current subtree (after everything for a last root).
	p, depth := len(d.order), 0
	sibs := d.roots
	if par := root.parent; par != nil {
		p, depth = searchPre(d.order, par.post+1), par.depth+1
		sibs = par.children
	}
	if sibs[len(sibs)-1] != root {
		for i, s := range sibs {
			if s == root {
				p = searchPre(d.order, sibs[i+1].pre)
				break
			}
		}
	}
	collect(root, depth)
	k := len(sub)

	// Splice into the pre-order slice (copy handles the overlap), then
	// label the new run.
	d.order = append(d.order, sub...)
	copy(d.order[p+k:], d.order[p:len(d.order)-k])
	copy(d.order[p:], sub)
	d.label(p, k)

	// Posting lists: sub is in pre-order, so repeated insertion keeps
	// each list sorted.
	for _, e := range sub {
		for _, c := range e.cls.Names {
			d.insertPosting(c, e)
		}
	}
	// Value indexes: labels are assigned, so postings land in order. A
	// relabel keeps relative order and never reorders existing postings.
	d.patchValueInsert(sub)
}

// label gives labels to the k unlabeled entries at d.order[p:p+k],
// spaced inside the gap between their neighbours, or, when the gap is
// too small, by relabeling the smallest window around them whose density
// is under the threshold. It then fixes the posts that changed.
func (d *Directory) label(p, k int) {
	left, right := -1, 1<<labelBits
	if p > 0 {
		left = d.order[p-1].pre
	}
	if p+k < len(d.order) {
		right = d.order[p+k].pre
	}
	if right-left > k {
		step := (right - left) / (k + 1)
		for j, e := range d.order[p : p+k] {
			e.pre = left + (j+1)*step
		}
		fixPosts(d.order[p : p+k])
		return
	}
	for bits := 1; ; bits++ {
		size := 1 << bits
		base := max(left, 0) &^ (size - 1)
		a := searchPre(d.order[:p], base)
		b := p + k + searchPre(d.order[p+k:], base+size)
		if b-a <= windowCap[bits] || bits == labelBits {
			step := size / (b - a) // spread evenly, centred in their slots
			for j, e := range d.order[a:b] {
				e.pre = base + j*step + step/2
			}
			d.relabels += int64(b - a - k)
			fixPosts(d.order[a:b])
			return
		}
	}
}

// fixPosts restores post after the pre labels of es changed: a leaf's
// post is its own pre, and it is also the post of every ancestor it is
// the last descendant of, the chain of last children above it. An
// entry whose last leaf lies outside es keeps its post.
func fixPosts(es []*Entry) {
	for _, e := range es {
		if !e.IsLeaf() {
			continue
		}
		e.post = e.pre
		for c := e; c.parent != nil && c.parent.children[len(c.parent.children)-1] == c; c = c.parent {
			c.parent.post = e.pre
		}
	}
}

// patchDelete splices the subtree rooted at root out of the current
// encoding. Must run BEFORE the subtree is detached, while its interval
// [root.pre, root.post] and its parent's children are still current.
func (d *Directory) patchDelete(root *Entry) {
	lo, hi := rangeWithin(d.order, root.pre, root.post)

	// Posting lists and value indexes first, while the doomed entries'
	// labels still locate them: one contiguous splice per class occurring
	// in the subtree, one tree removal per (value, entry) posting.
	d.patchValueDelete(d.order[lo:hi])
	classes := make(map[string]struct{})
	for _, e := range d.order[lo:hi] {
		for _, c := range e.cls.Names {
			classes[c] = struct{}{}
		}
	}
	for c := range classes {
		list := d.classIndex[c]
		a, b := rangeWithin(list, root.pre, root.post)
		list = append(list[:a], list[b:]...)
		if len(list) == 0 {
			delete(d.classIndex, c) // the sealing walk never materializes empty lists
		} else {
			d.classIndex[c] = list
		}
	}

	// The ancestors whose subtree ended with root's now end with the
	// entry before it: its previous sibling's last leaf, or the parent.
	for c := root; c.parent != nil && c.parent.children[len(c.parent.children)-1] == c; c = c.parent {
		c.parent.post = d.order[lo-1].pre
	}
	d.order = append(d.order[:lo], d.order[hi:]...)
}

// insertPosting adds e (whose pre label is current) to class c's posting
// list, keeping it sorted by pre label.
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
