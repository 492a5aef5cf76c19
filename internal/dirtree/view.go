package dirtree

import "fmt"

type viewKind int

const (
	viewAll viewKind = iota
	viewEmpty
	viewSubtree
	viewExceptSubtree
)

// View is a read-only sub-instance of a directory. The incremental
// legality tests of Section 4.2 evaluate the sub-expressions of a
// Δ-query against ∅, Δ, D, or D±Δ (Figure 5); because update granularity
// is a single subtree Δ (Theorem 4.1), each of those sub-instances is
// expressible as the current forest filtered by an interval predicate:
//
//   - after applying an insertion: D+Δ = All, Δ = Subtree(root),
//     old D = ExceptSubtree(root);
//   - before applying a deletion: D = All, Δ = Subtree(root),
//     D−Δ = ExceptSubtree(root).
//
// A View is a small value and is copied freely.
type View struct {
	d    *Directory
	kind viewKind
	root *Entry
}

// All returns the view containing every entry of d.
func (d *Directory) All() View { return View{d: d, kind: viewAll} }

// EmptyView returns the empty view over d (the instance ∅ of Figure 5).
func (d *Directory) EmptyView() View { return View{d: d, kind: viewEmpty} }

// SubtreeView returns the view containing root and all of its descendants
// (the inserted or to-be-deleted subtree Δ).
func (d *Directory) SubtreeView(root *Entry) View {
	return View{d: d, kind: viewSubtree, root: root}
}

// ExceptSubtreeView returns the view containing every entry outside the
// subtree rooted at root.
func (d *Directory) ExceptSubtreeView(root *Entry) View {
	return View{d: d, kind: viewExceptSubtree, root: root}
}

// Directory returns the underlying directory.
func (v View) Directory() *Directory { return v.d }

// IsEmptyView reports whether this is the ∅ view (regardless of directory
// contents).
func (v View) IsEmptyView() bool { return v.kind == viewEmpty }

// Contains reports whether the view includes e. The directory must be
// sealed; Entries and ClassEntries seal it.
func (v View) Contains(e *Entry) bool {
	if e == nil || e.dir != v.d {
		return false
	}
	switch v.kind {
	case viewAll:
		return true
	case viewEmpty:
		return false
	case viewSubtree:
		return v.root.pre <= e.pre && e.pre <= v.root.post
	case viewExceptSubtree:
		return e.pre < v.root.pre || e.pre > v.root.post
	}
	return false
}

// Entries returns the view's entries in pre-order. For the subtree views
// this slices or filters the directory's pre-order without re-sorting.
func (v View) Entries() []*Entry {
	v.d.EnsureEncoded()
	switch v.kind {
	case viewAll:
		return v.d.order
	case viewEmpty:
		return nil
	case viewSubtree:
		lo, hi := rangeWithin(v.d.order, v.root.pre, v.root.post)
		return v.d.order[lo:hi]
	case viewExceptSubtree:
		lo, hi := rangeWithin(v.d.order, v.root.pre, v.root.post)
		out := make([]*Entry, 0, len(v.d.order)-(hi-lo))
		out = append(out, v.d.order[:lo]...)
		out = append(out, v.d.order[hi:]...)
		return out
	}
	return nil
}

// ClassEntries returns the view's entries of object class c in pre-order.
func (v View) ClassEntries(c string) []*Entry {
	return v.Filter(v.d.ClassEntries(c))
}

// Filter clips a pre-order-sorted entry list (a posting list or an index
// probe result) to the view, without re-sorting. For the contiguous views
// this is a binary-searched slice of the input; the result may share the
// input's backing array and must be treated as read-only.
func (v View) Filter(sorted []*Entry) []*Entry {
	v.d.EnsureEncoded()
	switch v.kind {
	case viewAll:
		return sorted
	case viewEmpty:
		return nil
	case viewSubtree:
		lo, hi := rangeWithin(sorted, v.root.pre, v.root.post)
		return sorted[lo:hi]
	case viewExceptSubtree:
		lo, hi := rangeWithin(sorted, v.root.pre, v.root.post)
		if lo == hi {
			return sorted
		}
		out := make([]*Entry, 0, len(sorted)-(hi-lo))
		out = append(out, sorted[:lo]...)
		out = append(out, sorted[hi:]...)
		return out
	}
	return nil
}

// rangeWithin returns the half-open index range of entries in the
// pre-order-sorted list whose pre label lies in [lo, hi], by binary search.
func rangeWithin(sorted []*Entry, lo, hi int) (int, int) {
	a := searchPre(sorted, lo)
	b := searchPre(sorted, hi+1)
	return a, b
}

// searchPre returns the first index whose entry has pre >= target.
func searchPre(sorted []*Entry, target int) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid].pre < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Len returns the number of entries in the view.
func (v View) Len() int {
	v.d.EnsureEncoded()
	switch v.kind {
	case viewAll:
		return len(v.d.order)
	case viewEmpty:
		return 0
	case viewSubtree:
		lo, hi := rangeWithin(v.d.order, v.root.pre, v.root.post)
		return hi - lo
	case viewExceptSubtree:
		lo, hi := rangeWithin(v.d.order, v.root.pre, v.root.post)
		return len(v.d.order) - (hi - lo)
	}
	return 0
}

// String describes the view for diagnostics.
func (v View) String() string {
	switch v.kind {
	case viewAll:
		return "D"
	case viewEmpty:
		return "∅"
	case viewSubtree:
		return fmt.Sprintf("Δ(%s)", v.root.DN())
	case viewExceptSubtree:
		return fmt.Sprintf("D−Δ(%s)", v.root.DN())
	}
	return "?"
}
