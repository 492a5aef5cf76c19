package txn

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/ldif"
	"boundschema/internal/workload"
)

// The refusal/undo oracle. For one transaction on a legal instance it
// holds the incremental applier to the full recheck (forceApply, then a
// full Checker.Check):
//
//   - the verdicts are equal, and so are the violated-element sets when
//     the update normalizes to a single subtree Δ (with several, the
//     incremental applier stops at the first refused Δ, so its set is a
//     subset of the full recheck's);
//   - after a refusal, and after running ApplyWithUndo's undo on an
//     accepted transaction, the instance is byte-identical to the one
//     before the transaction: LDIF dump, every class posting list with
//     its interval ranks, and every value index;
//   - an accepted instance equals the forced one, and its patched
//     posting lists and value indexes equal a from-scratch rebuild.
//
// warm builds every value index before the transaction, so the commit
// patches them; cold leaves them unbuilt, so the key probes build them
// mid-transaction. Both must give the same answers.
type oracle struct {
	s    *core.Schema
	warm bool
}

func (o oracle) check(t *testing.T, d *dirtree.Directory, tx *Transaction) (legal bool, ok bool) {
	t.Helper()
	probes := valueProbes(d, tx)
	before := stateDump(d.Clone(), probes)

	full := d.Clone()
	var rFull *core.Report
	errFull := forceApply(full, tx)
	if errFull == nil {
		rFull = core.NewChecker(o.s).Check(full)
	}

	inc := d.Clone()
	if o.warm {
		for attr := range probes {
			inc.ValuePairs(attr)
		}
	}
	rInc, undo, errInc := NewApplier(o.s).ApplyWithUndo(inc, tx)
	if (errFull != nil) != (errInc != nil) {
		t.Logf("error mismatch: full=%v inc=%v", errFull, errInc)
		return false, false
	}
	if errFull != nil {
		if got := stateDump(inc, probes); got != before {
			t.Logf("failed apply changed the instance (%v):\n%s", errInc, firstDiff(before, got))
			return false, false
		}
		return false, true
	}
	if rFull.Legal() != rInc.Legal() {
		t.Logf("verdict mismatch: full=%v inc=%v\nfull:\n%s\ninc:\n%s", rFull.Legal(), rInc.Legal(), rFull, rInc)
		return false, false
	}
	fullSet, incSet := elementSet(rFull), elementSet(rInc)
	norm, err := Normalize(d, tx)
	if err != nil {
		t.Fatal(err)
	}
	single := len(norm.Inserts)+len(norm.Deletes) == 1
	for el := range incSet {
		if !fullSet[el] {
			t.Logf("incremental reports %q, full recheck does not\nfull:\n%s\ninc:\n%s", el, rFull, rInc)
			return false, false
		}
	}
	if single && len(incSet) != len(fullSet) {
		t.Logf("single-Δ element sets differ: full=%v inc=%v", fullSet, incSet)
		return false, false
	}

	if !rInc.Legal() {
		if got := stateDump(inc, probes); got != before {
			t.Logf("refusal did not restore the instance:\n%s\nreport:\n%s", firstDiff(before, got), rInc)
			return false, false
		}
		return false, true
	}
	if ldifOf(inc) != ldifOf(full) {
		t.Logf("incremental applier and forced apply produced different instances")
		return false, false
	}
	if o.warm {
		if got, fresh := stateDump(inc, probes), stateDump(inc.Clone(), probes); got != fresh {
			t.Logf("patched state differs from a rebuild:\n%s", firstDiff(fresh, got))
			return false, false
		}
	}
	if err := undo(); err != nil {
		t.Logf("undo: %v", err)
		return false, false
	}
	if got := stateDump(inc, probes); got != before {
		t.Logf("undo did not restore the instance:\n%s", firstDiff(before, got))
		return false, false
	}
	return true, true
}

// forceApply applies tx to d with no legality check — the normalized
// insertions, then the deletions (Theorem 4.1). Followed by a full
// Checker.Check it is the reference verdict the applier is held to.
func forceApply(d *dirtree.Directory, tx *Transaction) error {
	norm, err := Normalize(d, tx)
	if err != nil {
		return err
	}
	for _, ins := range norm.Inserts {
		if _, err := d.GraftSubtree(d.ByDN(ins.ParentDN), ins.Fragment.Roots()[0]); err != nil {
			return err
		}
	}
	for _, dn := range norm.Deletes {
		if _, err := d.DeleteSubtree(d.ByDN(dn)); err != nil {
			return err
		}
	}
	return nil
}

// stateDump renders everything a commit patches: the LDIF dump, every
// class posting list with each posting's interval, and, per attribute in
// probes, the value index's size and its posting list for every probed
// value.
func stateDump(d *dirtree.Directory, probes map[string][]dirtree.Value) string {
	var b strings.Builder
	b.WriteString(ldifOf(d))
	for _, c := range d.ClassNames() {
		fmt.Fprintf(&b, "class %s:", c)
		for _, e := range d.ClassEntries(c) {
			fmt.Fprintf(&b, " %s[%d,%d]", e.DN(), e.Pre(), e.Post())
		}
		b.WriteByte('\n')
	}
	attrs := make([]string, 0, len(probes))
	for attr := range probes {
		attrs = append(attrs, attr)
	}
	sort.Strings(attrs)
	for _, attr := range attrs {
		fmt.Fprintf(&b, "index %s pairs=%d\n", attr, d.ValuePairs(attr))
		for _, v := range probes[attr] {
			fmt.Fprintf(&b, "  %s:", v.String())
			for _, e := range d.ValueEntries(attr, v) {
				fmt.Fprintf(&b, " %s[%d]", e.DN(), e.Pre())
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// valueProbes collects every attribute value of d and of tx's additions.
func valueProbes(d *dirtree.Directory, tx *Transaction) map[string][]dirtree.Value {
	out := map[string][]dirtree.Value{}
	for _, e := range d.Entries() {
		for _, attr := range e.AttrNames() {
			if attr != dirtree.AttrObjectClass {
				out[attr] = append(out[attr], e.Attr(attr)...)
			}
		}
	}
	for _, op := range tx.Ops {
		for attr, vs := range op.Attrs {
			out[attr] = append(out[attr], vs...)
		}
	}
	return out
}

func elementSet(r *core.Report) map[string]bool {
	out := map[string]bool{}
	for _, v := range r.Violations {
		el := ""
		if v.Element != nil {
			el = v.Element.ElementString()
		}
		out[v.Kind.String()+" "+el] = true
	}
	return out
}

func ldifOf(d *dirtree.Directory) string {
	var b strings.Builder
	if err := ldif.WriteDirectory(&b, d); err != nil {
		panic(err)
	}
	return b.String()
}

func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("length %d lines, want %d", len(g), len(w))
}

// TestQuickIncrementalAgreesWithFull: on random legal corpora and random
// transactions, the incremental applier accepts or refuses exactly as a
// full recheck does, in any well-formed order of the operations, and
// leaves exactly the state the oracle above demands (Theorems 4.1/4.2,
// the Section 4 count remark, Section 6.1 keys).
func TestQuickIncrementalAgreesWithFull(t *testing.T) {
	t.Run("whitepages", func(t *testing.T) {
		s := workload.WhitePagesSchema()
		shuffled := 0
		f := func(seed int64, nops uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			d := workload.Corpus(s, rng, 40)
			tx := randomTransaction(s, d, rng, int(nops%6)+1)
			legal, ok := oracle{s: s, warm: seed%2 == 0}.check(t, d, tx)
			// Theorem 4.1: the verdict does not depend on the order of
			// the operations, so a well-formed shuffle of tx gets tx's.
			perm := &Transaction{Ops: slices.Clone(tx.Ops)}
			rng.Shuffle(len(perm.Ops), func(i, j int) { perm.Ops[i], perm.Ops[j] = perm.Ops[j], perm.Ops[i] })
			if rep, err := NewApplier(s).Apply(d.Clone(), perm); err == nil {
				shuffled++
				if _, err := Normalize(d, tx); err != nil || rep.Legal() != legal {
					t.Logf("shuffled ops legal=%v; in order: legal=%v, normalize %v", rep.Legal(), legal, err)
					return false
				}
			}
			return ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
			t.Error(err)
		}
		if shuffled == 0 {
			t.Error("no shuffled transaction was well-formed; the order check tested nothing")
		}
	})

	// Illegal deletes at the head, middle and tail of the pre-order. Each
	// follows a legal insertion (and, when its DN sorts first, a legal
	// deletion) that the refusal must undo, so the rollback splices at
	// every region of the encoding.
	t.Run("refused-deletes", func(t *testing.T) {
		s := workload.WhitePagesSchema()
		d := workload.Corpus(s, rand.New(rand.NewSource(3)), 400)
		n := d.Len()
		for _, at := range []int{0, n / 2, n - n/8} {
			tx := lonePersonDeletes(t, d, at)
			for _, warm := range []bool{false, true} {
				legal, ok := oracle{s: s, warm: warm}.check(t, d, tx)
				if !ok {
					t.Fatalf("rank %d (warm=%v): oracle failed", at, warm)
				}
				if legal {
					t.Fatalf("rank %d: deleting an orgUnit's only person accepted", at)
				}
			}
		}
	})

	for _, warm := range []bool{false, true} {
		t.Run(fmt.Sprintf("netpolicy-keys/warm=%v", warm), func(t *testing.T) {
			s := workload.NetPolicySchema()
			accepted := 0
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				d := workload.NetPolicyCorpus(s, rng, 60)
				legal, ok := oracle{s: s, warm: warm}.check(t, d, netPolicyTransaction(d, rng))
				if legal {
					accepted++
				}
				return ok
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
				t.Error(err)
			}
			if accepted == 0 || accepted == 80 {
				t.Errorf("%d/80 transactions accepted; the generator must produce both verdicts", accepted)
			}
		})
	}

	t.Run("random-schemas", func(t *testing.T) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			s, d := randomLegalInstance(rng)
			for i := 0; i < 4; i++ {
				tx := randomSchemaTransaction(s, d, rng, 1+i%3)
				if _, ok := (oracle{s: s, warm: i%2 == 0}).check(t, d, tx); !ok {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Error(err)
		}
	})
}

// lonePersonDeletes builds a transaction that inserts a legal person,
// deletes a person with a person sibling (legal), and deletes the only
// person below the first orgUnit at or after pre-order rank at (wrapping
// around) — which breaks orgGroup →de person.
func lonePersonDeletes(t *testing.T, d *dirtree.Directory, at int) *Transaction {
	t.Helper()
	ents := d.Entries()
	var lone, spare *dirtree.Entry
	for i := range ents {
		e := ents[(at+i)%len(ents)]
		if lone == nil && e.HasClass("orgUnit") {
			if ps := d.SubtreeView(e).ClassEntries("person"); len(ps) == 1 && ps[0].IsLeaf() {
				lone = ps[0]
			}
		}
		if spare == nil && e.HasClass("person") && e.IsLeaf() {
			for _, sib := range e.Parent().Children() {
				if sib != e && sib.HasClass("person") {
					spare = e
					break
				}
			}
		}
	}
	if lone == nil || spare == nil || lone.Parent() == spare.Parent() {
		t.Fatalf("corpus has no lone person / spare person pair from rank %d", at)
	}
	tx := &Transaction{}
	tx.Add("uid=extra,"+spare.Parent().DN(), []string{"person", "top"}, person("extra"))
	tx.Delete(spare.DN())
	tx.Delete(lone.DN())
	return tx
}

// netPolicyTransaction builds one netpolicy update around the ipAddress
// key: collisions with existing hosts, MOVEs whose origin holds the key
// (alone, and with the key reused by a new host), a deleted holder whose
// key is reused, and subnets arriving with hosts that share a key.
func netPolicyTransaction(d *dirtree.Directory, rng *rand.Rand) *Transaction {
	hosts := d.ClassEntries("host")
	subnets := d.ClassEntries("subnet")
	pickHost := func() *dirtree.Entry { return hosts[rng.Intn(len(hosts))] }
	otherSubnet := func(not *dirtree.Entry) string {
		for {
			if s := subnets[rng.Intn(len(subnets))]; s != not || len(subnets) == 1 {
				return s.DN()
			}
		}
	}
	ip := func(e *dirtree.Entry) string { return e.Attr("ipAddress")[0].String() }
	tx := &Transaction{}
	addHost := func(dn, addr string) {
		tx.Add(dn, []string{"host", "netElement", "top"},
			map[string][]dirtree.Value{"ipAddress": {dirtree.String(addr)}})
	}
	switch rng.Intn(7) {
	case 0: // collide with an existing holder
		addHost("cn=dup,"+otherSubnet(nil), ip(pickHost()))
	case 1: // a fresh key
		addHost("cn=fresh,"+otherSubnet(nil), "10.9.0.1")
	case 2: // move a holder: its own key must not self-collide
		h := pickHost()
		tx.Move(h.DN(), otherSubnet(h.Parent()))
	case 3: // move a holder and reuse its key: collides with the moved copy
		h := pickHost()
		tx.Move(h.DN(), otherSubnet(h.Parent()))
		addHost("cn=reuse,"+otherSubnet(nil), ip(h))
	case 4: // delete a holder and reuse its key in the same update
		h := pickHost()
		tx.Delete(h.DN())
		addHost("cn=reuse,"+otherSubnet(nil), ip(h))
	case 5: // a subnet arriving with two hosts, sometimes sharing a key
		sub := "ou=arrival,o=backbone"
		tx.Add(sub, []string{"subnet", "netElement", "top"},
			map[string][]dirtree.Value{"name": {dirtree.String("arrival")}})
		second := "10.9.1.2"
		if rng.Intn(2) == 0 {
			second = "10.9.1.1"
		}
		addHost("cn=a,"+sub, "10.9.1.1")
		addHost("cn=b,"+sub, second)
	default: // move a whole subnet, and collide with one of its keys
		sub := subnets[rng.Intn(len(subnets))]
		tx.Move(sub.DN(), otherSubnet(sub))
		if hs := d.SubtreeView(sub).ClassEntries("host"); len(hs) > 0 && rng.Intn(2) == 0 {
			addHost("cn=clash,"+otherSubnet(sub), ip(hs[0]))
		}
	}
	return tx
}

// randomLegalInstance draws a consistent random schema with at least one
// downward required relationship (→ch or →de), materializes a witness,
// and grows it by grafting copies of its own subtrees, keeping each copy
// only when a full recheck accepts it.
func randomLegalInstance(rng *rand.Rand) (*core.Schema, *dirtree.Directory) {
	for {
		s := workload.RandomSchema(rng, workload.SchemaConfig{
			Classes: 3 + rng.Intn(3), Required: 2 + rng.Intn(3),
			Forbidden: rng.Intn(2), RequiredClasses: 1 + rng.Intn(2),
			Deep: rng.Intn(2) == 0,
		})
		downward := false
		for _, r := range s.Structure.RequiredRels() {
			downward = downward || r.Axis.Downward()
		}
		if !downward || !s.Consistent() {
			continue
		}
		d, err := core.Materialize(s)
		if err != nil {
			continue
		}
		checker := core.NewChecker(s)
		for i := 0; i < 8; i++ {
			// A refused or malformed copy leaves d as it was.
			grown := d.Clone()
			if forceApply(grown, copySubtree(d, rng, fmt.Sprintf("g%d", i))) == nil && checker.Check(grown).Legal() {
				d = grown
			}
		}
		return s, d
	}
}

// randomSchemaTransaction mixes subtree deletions (half of them aimed at
// a witness of a downward required relationship), subtree copies and
// moves on a random-schema instance, dropping any operation that would
// make the transaction fail to normalize.
func randomSchemaTransaction(s *core.Schema, d *dirtree.Directory, rng *rand.Rand, n int) *Transaction {
	tx := &Transaction{}
	ents := d.Entries()
	var witnesses []*dirtree.Entry
	for _, r := range s.Structure.RequiredRels() {
		for _, src := range d.ClassEntries(r.Source) {
			for _, w := range d.SubtreeView(src).ClassEntries(r.Target) {
				if w != src && (r.Axis == core.AxisDesc || w.Parent() == src) {
					witnesses = append(witnesses, w)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		keep := len(tx.Ops)
		victim := ents[rng.Intn(len(ents))]
		if len(witnesses) > 0 && rng.Intn(2) == 0 {
			victim = witnesses[rng.Intn(len(witnesses))]
		}
		switch rng.Intn(4) {
		case 0:
			tx.Ops = append(tx.Ops, copySubtree(d, rng, fmt.Sprintf("t%d", i)).Ops...)
		case 1:
			tx.Move(victim.DN(), ents[rng.Intn(len(ents))].DN())
		default:
			for _, x := range d.SubtreeView(victim).Entries() {
				tx.Delete(x.DN())
			}
		}
		if _, err := Normalize(d, tx); err != nil {
			tx.Ops = tx.Ops[:keep]
		}
	}
	return tx
}

// copySubtree returns a transaction adding a copy of a random subtree of
// d, renamed cn=<tag>, under a random entry outside it (or as a root).
func copySubtree(d *dirtree.Directory, rng *rand.Rand, tag string) *Transaction {
	ents := d.Entries()
	src := ents[rng.Intn(len(ents))]
	base := ""
	if dest := ents[rng.Intn(len(ents))]; dest != src && !src.IsAncestorOf(dest) {
		base = "," + dest.DN()
	}
	tx := &Transaction{}
	var walk func(e *dirtree.Entry, dn string)
	walk = func(e *dirtree.Entry, dn string) {
		attrs := map[string][]dirtree.Value{}
		for _, a := range e.AttrNames() {
			if a != dirtree.AttrObjectClass {
				attrs[a] = e.Attr(a)
			}
		}
		tx.Add(dn, e.Classes(), attrs)
		for _, c := range e.Children() {
			walk(c, c.RDN()+","+dn)
		}
	}
	walk(src, "cn="+tag+base)
	return tx
}
