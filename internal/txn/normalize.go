package txn

import (
	"fmt"
	"sort"

	"boundschema/internal/dirtree"
	"boundschema/internal/ldif"
	"boundschema/internal/proto"
)

// InsertTree is one normalized subtree insertion: a standalone fragment
// directory to graft under ParentDN ("" grafts a new forest root).
type InsertTree struct {
	ParentDN string
	Fragment *dirtree.Directory // exactly one root
}

// Normalized is a transaction reduced to the Theorem 4.1 form: a set of
// subtree insertions followed by a set of subtree deletions, where no two
// subtree roots form an ancestor/descendant pair.
type Normalized struct {
	Inserts []InsertTree
	Deletes []string // DNs of subtree roots to delete, outermost only
}

// Normalize validates the transaction against the current instance and
// groups its entry-level operations into subtree insertions and
// deletions (Theorem 4.1). It rejects transactions that:
//
//   - operate on the same DN twice (Section 4.1 requires distinct ops);
//   - add an entry whose parent neither exists in d nor is added earlier
//     in the transaction;
//   - add or move an entry below a deleted subtree;
//   - delete a missing entry, or delete an entry while keeping one of
//     its descendants (LDAP deletes leaves only, so the net deleted set
//     must be closed under descendants).
func Normalize(d *dirtree.Directory, t *Transaction) (*Normalized, error) {
	t, moves, err := expandMoves(d, t)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]OpKind, len(t.Ops))
	for _, op := range t.Ops {
		if _, dup := seen[op.DN]; dup {
			return nil, fmt.Errorf("txn: duplicate operation on %q", op.DN)
		}
		seen[op.DN] = op.Kind
	}

	out := &Normalized{}

	// Deletions: collect the deleted set, find its roots, and check
	// descendant closure.
	deleted := make(map[string]bool)
	for _, op := range t.Ops {
		if op.Kind == OpDelete {
			if d.ByDN(op.DN) == nil {
				return nil, fmt.Errorf("txn: cannot delete %s %q", proto.MissingEntry, op.DN)
			}
			deleted[op.DN] = true
		}
	}
	for dn := range deleted {
		e := d.ByDN(dn)
		for _, c := range e.Children() {
			if !deleted[c.DN()] {
				return nil, fmt.Errorf("txn: deleting %q would orphan its child %q", dn, c.DN())
			}
		}
		if p := e.Parent(); p == nil || !deleted[p.DN()] {
			out.Deletes = append(out.Deletes, dn)
		}
	}
	sort.Strings(out.Deletes)
	// A move's target DN must be new to the transaction, and its
	// destination must survive it: a copy grafted below a deleted entry
	// would be checked, then silently deleted with it.
	targets := make(map[string]bool, len(moves))
	for _, m := range moves {
		dn := m.Fragment.Roots()[0].RDN()
		if m.ParentDN != "" {
			dn += "," + m.ParentDN
		}
		if _, dup := seen[dn]; dup || targets[dn] {
			return nil, fmt.Errorf("txn: duplicate operation on %q", dn)
		}
		targets[dn] = true
		if m.ParentDN != "" && underAny(m.ParentDN, deleted) {
			return nil, fmt.Errorf("txn: %q would be moved below deleted entry %q", dn, m.ParentDN)
		}
	}

	// Insertions: roots are the added entries whose parent is not added;
	// their parent must exist in d and must not be scheduled for
	// deletion.
	frags := make(map[string]*InsertTree) // inserted root DN -> fragment
	reg := d.Registry()
	for _, op := range t.Ops {
		if op.Kind != OpAdd {
			continue
		}
		rdn, parentDN, err := ldif.SplitDN(op.DN)
		if err != nil {
			return nil, err
		}
		var fragParent *dirtree.Entry
		var frag *InsertTree
		if k, added := seen[parentDN]; parentDN != "" && added && k == OpAdd {
			// Parent added in this transaction: find its fragment. The
			// parent op must precede this one, which the fragment lookup
			// enforces.
			frag = fragmentFor(frags, parentDN)
			if frag == nil {
				return nil, fmt.Errorf("txn: %q added before its parent %q", op.DN, parentDN)
			}
			fragParent = frag.Fragment.ByDN(fragmentDN(parentDN, frag))
			if fragParent == nil {
				return nil, fmt.Errorf("txn: %q added before its parent %q", op.DN, parentDN)
			}
		} else {
			// New subtree root.
			if parentDN != "" {
				if deleted[parentDN] || underAny(parentDN, deleted) {
					return nil, fmt.Errorf("txn: %q would be inserted below deleted entry %q", op.DN, parentDN)
				}
				if d.ByDN(parentDN) == nil {
					return nil, fmt.Errorf("txn: parent %q of added entry %q does not exist", parentDN, op.DN)
				}
			}
			if d.ByDN(op.DN) != nil {
				return nil, fmt.Errorf("txn: added entry %q already exists", op.DN)
			}
			frag = &InsertTree{ParentDN: parentDN, Fragment: dirtree.New(reg)}
			frags[op.DN] = frag
			out.Inserts = append(out.Inserts, InsertTree{})
		}

		var e *dirtree.Entry
		if fragParent == nil {
			e, err = frag.Fragment.AddRoot(rdn, op.Classes...)
		} else {
			e, err = frag.Fragment.AddChild(fragParent, rdn, op.Classes...)
		}
		if err != nil {
			return nil, fmt.Errorf("txn: %v", err)
		}
		for name, vs := range op.Attrs {
			for _, v := range vs {
				e.AddValue(name, v)
			}
		}
	}
	// Rebuild the insert list in deterministic order.
	out.Inserts = out.Inserts[:0]
	rootDNs := make([]string, 0, len(frags))
	for dn := range frags {
		rootDNs = append(rootDNs, dn)
	}
	sort.Strings(rootDNs)
	for _, dn := range rootDNs {
		out.Inserts = append(out.Inserts, *frags[dn])
	}
	out.Inserts = append(out.Inserts, moves...)
	return out, nil
}

// expandMoves turns each OpMove into a subtree insertion at the
// destination (copied from the live subtree) plus the per-entry deletions
// of the origin, leaving a transaction with only adds and deletes.
func expandMoves(d *dirtree.Directory, t *Transaction) (*Transaction, []InsertTree, error) {
	var moves []InsertTree
	hasMove := false
	for _, op := range t.Ops {
		if op.Kind == OpMove {
			hasMove = true
			break
		}
	}
	if !hasMove {
		return t, nil, nil
	}
	out := &Transaction{}
	for _, op := range t.Ops {
		if op.Kind != OpMove {
			out.Ops = append(out.Ops, op)
			continue
		}
		src := d.ByDN(op.DN)
		if src == nil {
			return nil, nil, fmt.Errorf("txn: cannot move %s %q", proto.MissingEntry, op.DN)
		}
		if op.NewParentDN != "" {
			dst := d.ByDN(op.NewParentDN)
			if dst == nil {
				return nil, nil, fmt.Errorf("txn: move destination %q does not exist", op.NewParentDN)
			}
			for a := dst; a != nil; a = a.Parent() {
				if a == src {
					return nil, nil, fmt.Errorf("txn: cannot move %q below itself", op.DN)
				}
			}
			newDN := src.RDN() + "," + op.NewParentDN
			if d.ByDN(newDN) != nil {
				return nil, nil, fmt.Errorf("txn: move target %q already exists", newDN)
			}
		} else if d.ByDN(src.RDN()) != nil && d.ByDN(src.RDN()) != src {
			return nil, nil, fmt.Errorf("txn: move target %q already exists", src.RDN())
		}
		// Copy the subtree into a standalone fragment for insertion at
		// the destination.
		frag := dirtree.New(d.Registry())
		if _, err := frag.GraftSubtree(nil, src); err != nil {
			return nil, nil, err
		}
		moves = append(moves, InsertTree{ParentDN: op.NewParentDN, Fragment: frag})
		// Delete the origin, listing every entry so the descendant-
		// closure validation holds.
		var listAll func(e *dirtree.Entry)
		listAll = func(e *dirtree.Entry) {
			out.Delete(e.DN())
			for _, c := range e.Children() {
				listAll(c)
			}
		}
		listAll(src)
	}
	return out, moves, nil
}

// fragmentFor finds the insert fragment containing the given DN (the DN
// of an added entry that is not itself a fragment root).
func fragmentFor(frags map[string]*InsertTree, dn string) *InsertTree {
	for cur := dn; cur != ""; {
		if f, ok := frags[cur]; ok {
			return f
		}
		_, parent, err := ldif.SplitDN(cur)
		if err != nil {
			return nil
		}
		cur = parent
	}
	return nil
}

// fragmentDN rewrites an absolute DN into the fragment's local DN space:
// the fragment root's DN inside the fragment is just its RDN, with the
// graft parent's suffix stripped.
func fragmentDN(dn string, f *InsertTree) string {
	if f.ParentDN == "" {
		return dn
	}
	suffix := "," + f.ParentDN
	if len(dn) > len(suffix) && dn[len(dn)-len(suffix):] == suffix {
		return dn[:len(dn)-len(suffix)]
	}
	return dn
}

// underAny reports whether dn lies at or below any DN in the set.
func underAny(dn string, set map[string]bool) bool {
	for cur := dn; cur != ""; {
		if set[cur] {
			return true
		}
		_, parent, err := ldif.SplitDN(cur)
		if err != nil {
			return false
		}
		cur = parent
	}
	return false
}
