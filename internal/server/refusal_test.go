package server

import (
	"fmt"
	"math/rand"
	"testing"

	"boundschema/internal/dirtree"
	"boundschema/internal/txn"
	"boundschema/internal/workload"
)

// The refusal-cost ratchet: allocations per CommitTx, counted rather than
// timed, over a journal-less server. Theorem 4.2 prices an update check
// by |Δ|, not |D|, and that must hold for the "no" answer too: a refused
// ADD or DELETE allocates the same at 5k and at 40k entries, and no more
// than a legal ADD. A refusal that rebuilds shadow state allocates about
// one object per entry.
const (
	// legalPairAllocs pins a legal ADD+DELETE commit pair: 42 measured
	// (go1.24, linux/amd64) now that a deletion's rollback grafts from the
	// detached subtree instead of a copy (56 with the copy), 157–160 when
	// every Δ rebuilt the Figure 5 rows.
	legalPairAllocs = 46
	// refusalSlack bounds a refused commit above the legal ADD.
	refusalSlack = 16
	// sizeSlack bounds how far a refused commit may move between sizes.
	sizeSlack = 8
)

type commitAllocs struct {
	refusedAdd, refusedDelete, legalAdd, legalPair float64
}

func measureCommitAllocs(t *testing.T, n int) commitAllocs {
	t.Helper()
	s := workload.WhitePagesSchema()
	d := workload.Corpus(s, rand.New(rand.NewSource(1)), n)
	srv, err := New(s, "whitepages", d)
	if err != nil {
		t.Fatal(err)
	}
	d.EnsureEncoded()

	persons := d.ClassEntries("person")
	host := persons[len(persons)/2]
	var unit, lone *dirtree.Entry
	for _, u := range d.ClassEntries("orgUnit") {
		if ps := d.SubtreeView(u).ClassEntries("person"); len(ps) == 1 && ps[0].IsLeaf() {
			unit, lone = u, ps[0]
			break
		}
	}
	if unit == nil {
		t.Fatalf("|D|=%d: no orgUnit with a single person", n)
	}
	attrs := map[string][]dirtree.Value{"name": {dirtree.String("probe")}}
	classes := []string{"person", "top"}

	commit := func(tx *txn.Transaction, legal bool) {
		r, err := srv.CommitTx(tx)
		if err != nil {
			t.Fatal(err)
		}
		if r.Legal() != legal {
			t.Fatalf("|D|=%d: commit legal=%v, want %v:\n%s", n, r.Legal(), legal, r)
		}
	}
	var out commitAllocs

	// Refused ADD: a person under a person breaks person ⇥ch top.
	badAdd := &txn.Transaction{}
	badAdd.Add("uid=probe,"+host.DN(), classes, attrs)
	out.refusedAdd = testing.AllocsPerRun(20, func() { commit(badAdd, false) })

	// Refused DELETE: an orgUnit's last person breaks orgGroup →de person.
	badDel := &txn.Transaction{}
	badDel.Delete(lone.DN())
	out.refusedDelete = testing.AllocsPerRun(20, func() { commit(badDel, false) })

	// Legal ADD, with a fresh DN per run; the entries are removed after.
	var adds []*txn.Transaction
	for i := 0; i < 21; i++ {
		tx := &txn.Transaction{}
		tx.Add(fmt.Sprintf("uid=probe%d,%s", i, unit.DN()), classes, attrs)
		adds = append(adds, tx)
	}
	next := 0
	out.legalAdd = testing.AllocsPerRun(20, func() { commit(adds[next], true); next++ })
	cleanup := &txn.Transaction{}
	for _, tx := range adds[:next] {
		cleanup.Delete(tx.Ops[0].DN)
	}
	commit(cleanup, true)

	// Legal ADD+DELETE pair.
	add := &txn.Transaction{}
	add.Add("uid=pair,"+unit.DN(), classes, attrs)
	del := &txn.Transaction{}
	del.Delete("uid=pair," + unit.DN())
	out.legalPair = testing.AllocsPerRun(20, func() { commit(add, true); commit(del, true) })

	if !srv.checker.Check(d).Legal() {
		t.Fatalf("|D|=%d: instance illegal after the probes", n)
	}
	return out
}

func TestRefusalCostsWhatItsDeltaCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 40k-entry corpus")
	}
	small, large := measureCommitAllocs(t, 5000), measureCommitAllocs(t, 40000)
	t.Logf("allocs per commit at 5k: %+v", small)
	t.Logf("allocs per commit at 40k: %+v", large)
	for _, row := range []struct {
		name         string
		small, large float64
	}{
		{"refused ADD", small.refusedAdd, large.refusedAdd},
		{"refused DELETE", small.refusedDelete, large.refusedDelete},
	} {
		if diff := row.large - row.small; diff > sizeSlack || diff < -sizeSlack {
			t.Errorf("%s: %.0f allocations at 5k, %.0f at 40k; refusal cost grows with |D|", row.name, row.small, row.large)
		}
		for _, m := range []commitAllocs{small, large} {
			if m.refusedAdd > m.legalAdd+refusalSlack || m.refusedDelete > m.legalAdd+refusalSlack {
				t.Errorf("%s: refusals (%.0f ADD, %.0f DELETE) cost more than a legal ADD (%.0f) + %d",
					row.name, m.refusedAdd, m.refusedDelete, m.legalAdd, refusalSlack)
			}
		}
	}
	for _, m := range []commitAllocs{small, large} {
		if m.legalPair > legalPairAllocs {
			t.Errorf("legal ADD+DELETE pair: %.0f allocations, ratchet is %d", m.legalPair, legalPairAllocs)
		}
	}
}
