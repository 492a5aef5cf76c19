// Package txn implements directory update transactions (Section 4):
// sequences of entry-level insertions and deletions, their normalization
// into subtree insertions and deletions (Theorem 4.1), and an applier
// that preserves legality using the incremental tests of Figure 5
// (Theorem 4.2), with atomic rollback on violation.
//
// Beyond the paper, the applier makes Figure 5's deletion "N" rows
// incremental by reading the directory's class posting lists, which
// dirtree patches in place under every update: required classes (c⇓)
// by posting-list length, the Section 4 remark ("if we had the ability
// to associate each ci with the number of entries that belong to ci");
// downward required relationships by posting-list counts along the
// deleted subtree's ancestors, the only entries whose child or
// descendant sets shrink. Section 6.1 keys are probed in the directory's
// value indexes. The applier keeps no state of its own, so a refusal is
// undone by the transaction's undo closures alone.
package txn

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"boundschema/internal/dirtree"
	"boundschema/internal/ldif"
)

// OpKind distinguishes the two LDAP update operations (Section 4.1).
type OpKind int

// Operation kinds.
const (
	opAdd OpKind = iota
	opDelete
	// opMove relocates a whole subtree under a new parent (LDAP's
	// MODDN generalized to subtrees). Normalization expands it into a
	// subtree insertion at the destination plus a subtree deletion at
	// the origin, so the Figure 5 checks apply unchanged.
	opMove
)

func (k OpKind) String() string {
	switch k {
	case opAdd:
		return "add"
	case opDelete:
		return "delete"
	case opMove:
		return "move"
	}
	return "?"
}

// Op is one entry-level update operation.
type Op struct {
	Kind    OpKind
	DN      string
	Classes []string                   // classes for opAdd
	Attrs   map[string][]dirtree.Value // attribute values for opAdd
	// NewParentDN is the destination parent for opMove ("" moves the
	// subtree to the forest root).
	NewParentDN string
}

// Transaction is a sequence of distinct entry insertions and deletions,
// the update granularity of Section 4.1.
type Transaction struct {
	Ops []Op
}

// Add appends an insertion of a new entry with the given DN.
func (t *Transaction) Add(dn string, classes []string, attrs map[string][]dirtree.Value) {
	t.Ops = append(t.Ops, Op{Kind: opAdd, DN: dn, Classes: classes, Attrs: attrs})
}

// Delete appends a deletion of the entry with the given DN.
func (t *Transaction) Delete(dn string) {
	t.Ops = append(t.Ops, Op{Kind: opDelete, DN: dn})
}

// Move appends a relocation of the subtree rooted at dn to a new parent
// ("" makes it a forest root). The subtree keeps its RDNs and contents.
func (t *Transaction) Move(dn, newParentDN string) {
	t.Ops = append(t.Ops, Op{Kind: opMove, DN: dn, NewParentDN: newParentDN})
}

// Len returns the number of operations.
func (t *Transaction) Len() int { return len(t.Ops) }

// WriteChanges serializes the transaction as LDIF change records, the
// inverse of FromRecords; used by the server's commit journal.
func (t *Transaction) WriteChanges(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, op := range t.Ops {
		fmt.Fprintf(bw, "dn: %s\n", op.DN)
		switch op.Kind {
		case opAdd:
			fmt.Fprintln(bw, "changetype: add")
			for _, c := range op.Classes {
				fmt.Fprintf(bw, "objectClass: %s\n", c)
			}
			names := make([]string, 0, len(op.Attrs))
			for name := range op.Attrs {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				for _, v := range op.Attrs[name] {
					fmt.Fprintf(bw, "%s: %s\n", name, v.String())
				}
			}
		case opDelete:
			fmt.Fprintln(bw, "changetype: delete")
		case opMove:
			fmt.Fprintln(bw, "changetype: moddn")
			if op.NewParentDN != "" {
				fmt.Fprintf(bw, "newsuperior: %s\n", op.NewParentDN)
			}
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// FromRecords converts LDIF change records (changetype add, delete or
// moddn) into a transaction, using reg to type attribute values.
func FromRecords(recs []*ldif.Record, reg *dirtree.Registry) (*Transaction, error) {
	t := &Transaction{}
	for _, rec := range recs {
		switch rec.Change {
		case ldif.ChangeAdd:
			var classes []string
			attrs := make(map[string][]dirtree.Value)
			for _, a := range rec.Attrs {
				if a.Name == dirtree.AttrObjectClass {
					classes = append(classes, a.Value)
					continue
				}
				v, err := dirtree.ParseValue(reg.Type(a.Name), a.Value)
				if err != nil {
					return nil, fmt.Errorf("txn: line %d: %v", rec.Line, err)
				}
				attrs[a.Name] = append(attrs[a.Name], v)
			}
			t.Add(rec.DN, classes, attrs)
		case ldif.ChangeDelete:
			t.Delete(rec.DN)
		case ldif.ChangeModDN:
			t.Move(rec.DN, rec.NewSuperior)
		default:
			return nil, fmt.Errorf("txn: line %d: record is not a change record", rec.Line)
		}
	}
	return t, nil
}
