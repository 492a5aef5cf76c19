package main

import (
	"fmt"
	"math/rand"
	"time"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/hquery"
	"boundschema/internal/txn"
	"boundschema/internal/workload"
)

// ---------------------------------------------------------------------
// E1 — Figures 1-3: the worked example, plus seeded violations showing
// which schema element each mutation breaks.

func runE1() {
	s := workload.WhitePagesSchema()
	d := workload.WhitePagesInstance(s)
	checker := core.NewChecker(s)
	fmt.Printf("Figure 1 instance: %d entries, legal=%v\n\n", d.Len(), checker.Check(d).Legal())

	type mutation struct {
		name string
		mut  func(d *dirtree.Directory)
	}
	byDN := func(d *dirtree.Directory, dn string) *dirtree.Entry { return d.ByDN(dn) }
	muts := []mutation{
		{"drop laks' name (required attribute)", func(d *dirtree.Directory) {
			byDN(d, "uid=laks,ou=databases,ou=attLabs,o=att").SetValues("name")
		}},
		{"suciu gains class packetRouter (undeclared)", func(d *dirtree.Directory) {
			byDN(d, "uid=suciu,ou=databases,ou=attLabs,o=att").AddClass("packetRouter")
		}},
		{"databases gains aux facultyMember (not allowed for orgUnit)", func(d *dirtree.Directory) {
			byDN(d, "ou=databases,ou=attLabs,o=att").AddClass("facultyMember")
		}},
		{"suciu loses superclass person (single inheritance)", func(d *dirtree.Directory) {
			byDN(d, "uid=suciu,ou=databases,ou=attLabs,o=att").RemoveClass("person")
		}},
		{"laks gains a child (person ⇥ch top)", func(d *dirtree.Directory) {
			_, _ = d.AddChild(byDN(d, "uid=laks,ou=databases,ou=attLabs,o=att"), "cn=gadget", "top")
		}},
		{"empty orgUnit added (orgGroup →de person)", func(d *dirtree.Directory) {
			_, _ = d.AddChild(byDN(d, "ou=attLabs,o=att"), "ou=empty", "orgUnit", "orgGroup", "top")
		}},
		{"orgUnit at forest root (orgUnit →pa orgGroup)", func(d *dirtree.Directory) {
			_, _ = d.AddRoot("ou=stray", "orgUnit", "orgGroup", "top")
		}},
	}
	fmt.Printf("%-58s %s\n", "mutation", "violations detected")
	for _, m := range muts {
		dd := d.Clone()
		m.mut(dd)
		r := checker.Check(dd)
		kinds := map[string]bool{}
		for _, v := range r.Violations {
			kinds[v.Kind.String()] = true
		}
		var ks []string
		for k := range kinds {
			ks = append(ks, k)
		}
		fmt.Printf("%-58s %v\n", m.name, ks)
	}
}

// ---------------------------------------------------------------------
// E2 — Figure 4: for every structure-schema element kind, satisfaction
// per Definition 2.6 must coincide with (non-)emptiness of the translated
// hierarchical selection query.

func runE2() {
	rounds, size := 400, 120
	if *quick {
		rounds, size = 80, 60
	}
	classes := []string{"a", "b", "c", core.ClassTop}
	kinds := []struct {
		name string
		el   func(src, tgt string) core.Element
	}{
		{"ci →ch cj", func(s, t string) core.Element { return core.RequiredRel{Source: s, Axis: core.AxisChild, Target: t} }},
		{"cj ←pa ci", func(s, t string) core.Element { return core.RequiredRel{Source: s, Axis: core.AxisParent, Target: t} }},
		{"ci →de cj", func(s, t string) core.Element { return core.RequiredRel{Source: s, Axis: core.AxisDesc, Target: t} }},
		{"cj ←an ci", func(s, t string) core.Element { return core.RequiredRel{Source: s, Axis: core.AxisAnc, Target: t} }},
		{"ci ⇥ch cj", func(s, t string) core.Element { return core.ForbiddenRel{Upper: s, Axis: core.AxisChild, Lower: t} }},
		{"ci ⇥de cj", func(s, t string) core.Element { return core.ForbiddenRel{Upper: s, Axis: core.AxisDesc, Lower: t} }},
		{"c⇓", func(s, _ string) core.Element { return core.RequiredClass{Class: s} }},
	}
	fmt.Printf("%-10s %10s %10s %10s\n", "element", "checked", "satisfied", "agree")
	rng := rand.New(rand.NewSource(42))
	for _, k := range kinds {
		checked, satisfied, agree := 0, 0, 0
		for r := 0; r < rounds; r++ {
			// Mix tiny and mid-size instances so both satisfied and
			// violated elements occur.
			d := randomMixedInstance(rng, rng.Intn(size)+3, classes)
			b := hquery.NewBinding(d)
			src := classes[rng.Intn(len(classes))]
			tgt := classes[rng.Intn(len(classes))]
			el := k.el(src, tgt)
			sat := core.Satisfies(d, el)
			var queryVerdict bool
			switch e := el.(type) {
			case core.RequiredRel:
				queryVerdict = hquery.Empty(core.RequiredRelQuery(e), b)
			case core.ForbiddenRel:
				queryVerdict = hquery.Empty(core.ForbiddenRelQuery(e), b)
			case core.RequiredClass:
				queryVerdict = !hquery.Empty(core.RequiredClassQuery(e.Class), b)
			}
			checked++
			if sat {
				satisfied++
			}
			if sat == queryVerdict {
				agree++
			}
		}
		fmt.Printf("%-10s %10d %10d %9.1f%%\n", k.name, checked, satisfied, 100*float64(agree)/float64(checked))
	}
	fmt.Println("\nshape check: every row must agree 100.0% (Figure 4 correctness).")
}

func randomMixedInstance(rng *rand.Rand, n int, classes []string) *dirtree.Directory {
	d := dirtree.New(nil)
	var all []*dirtree.Entry
	for i := 0; i < n; i++ {
		cs := []string{core.ClassTop}
		for _, c := range classes {
			if c != core.ClassTop && rng.Intn(3) == 0 {
				cs = append(cs, c)
			}
		}
		var e *dirtree.Entry
		var err error
		if len(all) == 0 || rng.Intn(8) == 0 {
			e, err = d.AddRoot(fmt.Sprintf("r=%d", i), cs...)
		} else {
			e, err = d.AddChild(all[rng.Intn(len(all))], fmt.Sprintf("n=%d", i), cs...)
		}
		if err != nil {
			panic(err)
		}
		all = append(all, e)
	}
	return d
}

// ---------------------------------------------------------------------
// E3 — Theorem 3.1: full legality testing scales linearly with |D|.

func runE3() {
	sizes := []int{1000, 2000, 5000, 10000, 20000, 50000, 100000}
	if *quick {
		sizes = []int{1000, 2000, 5000, 10000}
	}
	s := workload.WhitePagesSchema()
	checker := core.NewChecker(s)
	fmt.Printf("%10s %14s %14s %12s\n", "|D|", "check total", "per entry", "legal")
	for _, n := range sizes {
		d := workload.Corpus(s, rand.New(rand.NewSource(7)), n)
		d.EnsureEncoded()
		reps := 3
		var best time.Duration
		legal := true
		for r := 0; r < reps; r++ {
			start := time.Now()
			legal = checker.Check(d).Legal()
			el := time.Since(start)
			if r == 0 || el < best {
				best = el
			}
		}
		fmt.Printf("%10d %14v %14.1f %12v\n", d.Len(), best, float64(best.Nanoseconds())/float64(d.Len()), legal)
	}
	fmt.Println("\nshape check: ns/entry stays roughly flat as |D| grows 100x (linear total).")
}

// ---------------------------------------------------------------------
// E4 — Section 3.2: the naive O((|Er|+|Ef|)·|D|²) pairwise baseline vs
// the query reduction.

func runE4() {
	sizes := []int{200, 500, 1000, 2000, 4000}
	if *quick {
		sizes = []int{200, 500, 1000}
	}
	s := workload.WhitePagesSchema()
	checker := core.NewChecker(s)
	fmt.Printf("%8s %14s %14s %10s\n", "|D|", "naive", "query-based", "speedup")
	for _, n := range sizes {
		d := workload.Corpus(s, rand.New(rand.NewSource(7)), n)
		d.EnsureEncoded()

		start := time.Now()
		rn := core.NaiveStructureCheck(s, d)
		naive := time.Since(start)

		start = time.Now()
		rq := checker.CheckStructure(d)
		query := time.Since(start)

		if rn.Legal() != rq.Legal() {
			fmt.Println("!! verdict mismatch — differential bug")
		}
		fmt.Printf("%8d %14v %14v %9.1fx\n", d.Len(), naive, query, float64(naive)/float64(query))
	}
	fmt.Println("\nshape check: speedup grows roughly linearly with |D| (quadratic vs linear).")
}

// ---------------------------------------------------------------------
// E5 — Theorem 4.1: the transaction verdict is independent of operation
// order, and equals the whole-transaction recheck.

func runE5() {
	rounds := 300
	if *quick {
		rounds = 60
	}
	s := workload.WhitePagesSchema()
	rng := rand.New(rand.NewSource(11))
	agree, permAgree := 0, 0
	for r := 0; r < rounds; r++ {
		d := workload.Corpus(s, rng, 60)
		tx := randomTx(s, d, rng)

		applyVerdict := func(ops []txn.Op) (bool, bool) {
			dd := d.Clone()
			a := txn.NewApplier(s)
			rep, err := a.Apply(dd, &txn.Transaction{Ops: ops})
			if err != nil {
				return false, false
			}
			return true, rep.Legal()
		}
		okA, vA := applyVerdict(tx.Ops)

		repF, errF := wholeTxnRecheck(s, d.Clone(), tx)
		if okA == (errF == nil) && (errF != nil || vA == repF.Legal()) {
			agree++
		}

		// Shuffle op order; normalization must give the same verdict
		// whenever the permuted sequence is itself well-formed.
		perm := append([]txn.Op(nil), tx.Ops...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		okP, vP := applyVerdict(perm)
		if !okP || (okA && vP == vA) {
			permAgree++
		}
	}
	fmt.Printf("transactions checked:                 %d\n", rounds)
	fmt.Printf("incremental == whole-txn recheck:     %d/%d\n", agree, rounds)
	fmt.Printf("verdict invariant under permutation:  %d/%d\n", permAgree, rounds)
	fmt.Println("\nshape check: both counters must equal the number checked.")
}

// wholeTxnRecheck is E5's reference verdict: apply the normalized update
// to d unchecked — insertions, then deletions (Theorem 4.1) — and run
// the full checker over the result.
func wholeTxnRecheck(s *core.Schema, d *dirtree.Directory, tx *txn.Transaction) (*core.Report, error) {
	norm, err := txn.Normalize(d, tx)
	if err != nil {
		return nil, err
	}
	for _, ins := range norm.Inserts {
		if _, err := d.GraftSubtree(d.ByDN(ins.ParentDN), ins.Fragment.Roots()[0]); err != nil {
			return nil, err
		}
	}
	for _, dn := range norm.Deletes {
		if _, err := d.DeleteSubtree(d.ByDN(dn)); err != nil {
			return nil, err
		}
	}
	return core.NewChecker(s).Check(d), nil
}

func randomTx(s *core.Schema, d *dirtree.Directory, rng *rand.Rand) *txn.Transaction {
	tx := &txn.Transaction{}
	groups := d.ClassEntries("orgGroup")
	persons := d.ClassEntries("person")
	n := rng.Intn(4) + 1
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			parent := groups[rng.Intn(len(groups))]
			dn := fmt.Sprintf("ou=x%d,%s", i, parent.DN())
			tx.Add(dn, []string{"orgUnit", "orgGroup", "top"}, nil)
			tx.Add("uid=xp"+fmt.Sprint(i)+","+dn, []string{"person", "top"},
				map[string][]dirtree.Value{"name": {dirtree.String("x")}})
		case 1:
			parent := groups[rng.Intn(len(groups))]
			tx.Add(fmt.Sprintf("uid=y%d,%s", i, parent.DN()), []string{"person", "top"},
				map[string][]dirtree.Value{"name": {dirtree.String("y")}})
		default:
			p := persons[rng.Intn(len(persons))]
			if p.IsLeaf() {
				already := false
				for _, op := range tx.Ops {
					if op.DN == p.DN() {
						already = true
					}
				}
				if !already {
					tx.Delete(p.DN())
				}
			}
		}
	}
	return tx
}

// ---------------------------------------------------------------------
// E6 — Figure 5 / Theorem 4.2: re-derive the Y/N table and measure the
// incremental checks against full rechecks.

func runE6() {
	n := 50000
	if *quick {
		n = 5000
	}
	s := workload.WhitePagesSchema()
	rng := rand.New(rand.NewSource(5))
	d := workload.Corpus(s, rng, n)
	d.EnsureEncoded()

	// Print the re-derived Figure 5 table.
	fmt.Println("Figure 5 (re-derived): incremental testability")
	fmt.Printf("%-12s %-8s %-8s\n", "element", "insert", "delete")
	for _, ax := range []core.Axis{core.AxisChild, core.AxisParent, core.AxisDesc, core.AxisAnc} {
		rel := core.RequiredRel{Source: "ci", Axis: ax, Target: "cj"}
		fmt.Printf("%-12s %-8s %-8s\n",
			rel.ElementString(), yn(core.InsertCheckRel(rel).Incremental), yn(core.DeleteCheckRel(rel).Incremental))
	}
	for _, ax := range []core.Axis{core.AxisChild, core.AxisDesc} {
		f := core.ForbiddenRel{Upper: "ci", Axis: ax, Lower: "cj"}
		fmt.Printf("%-12s %-8s %-8s\n",
			f.ElementString(), yn(core.InsertCheckForb(f).Incremental), yn(core.DeleteCheckForb(f).Incremental))
	}
	fmt.Printf("%-12s %-8s %-8s   (yes counted off the class posting lists)\n", "c⇓",
		yn(core.InsertCheckClass("c").Incremental), yn(core.DeleteCheckClass("c").Incremental))

	// Timing: insertion of a small subtree, per-element incremental
	// check vs full instance recheck.
	frag := workload.UpdateStream(s, rng, 8)
	groups := d.ClassEntries("orgGroup")
	root, err := d.GraftSubtree(groups[len(groups)/2], frag.Roots()[0])
	if err != nil {
		panic(err)
	}
	d.EnsureEncoded()
	b := hquery.DeltaBinding(d, root)

	fmt.Printf("\ninsertion of |Δ|=8 into |D|=%d:\n", d.Len())
	fmt.Printf("%-28s %14s %14s %10s\n", "element", "incremental", "full recheck", "speedup")
	for _, rel := range s.Structure.RequiredRels() {
		chk := core.InsertCheckRel(rel)
		inc := timeIt(func() { chk.Holds(b) })
		full := timeIt(func() { hquery.Empty(core.RequiredRelQuery(rel), hquery.NewBinding(d)) })
		fmt.Printf("%-28s %14v %14v %9.1fx\n", rel.ElementString(), inc, full, float64(full)/float64(inc))
	}
	for _, f := range s.Structure.ForbiddenRels() {
		chk := core.InsertCheckForb(f)
		inc := timeIt(func() { chk.Holds(b) })
		full := timeIt(func() { hquery.Empty(core.ForbiddenRelQuery(f), hquery.NewBinding(d)) })
		fmt.Printf("%-28s %14v %14v %9.1fx\n", f.ElementString(), inc, full, float64(full)/float64(inc))
	}

	// Deletion: the N rows cost like a full recheck; upward rows are free.
	fmt.Printf("\ndeletion checks on the same instance:\n")
	fmt.Printf("%-28s %14s %14s\n", "element", "figure-5 cost", "counted cost")
	victim := root
	bDel := hquery.DeltaBinding(d, victim)
	for _, rel := range s.Structure.RequiredRels() {
		chk := core.DeleteCheckRel(rel)
		fig5 := timeIt(func() { chk.Holds(bDel) })
		if chk.Incremental {
			fmt.Printf("%-28s %14v %14s\n", rel.ElementString(), fig5, "(no check)")
			continue
		}
		counted := timeIt(func() { txn.NarrowedDeleteCheck(d, victim, rel) })
		fmt.Printf("%-28s %14v %14v\n", rel.ElementString(), fig5, counted)
	}
	fmt.Println("\nshape check: insertion speedups grow with |D|; the deletion N rows cost")
	fmt.Println("like a full recheck, which counting the class posting lists along Δ's")
	fmt.Println("ancestors (what the applier runs) avoids.")
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func timeIt(f func()) time.Duration {
	const reps = 5
	best := time.Duration(1 << 62)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if el := time.Since(start); el < best {
			best = el
		}
	}
	return best
}

// ---------------------------------------------------------------------
// E7 — required classes under deletion: survivor scan vs posting-list
// length.

func runE7() {
	n := 50000
	if *quick {
		n = 5000
	}
	s := workload.WhitePagesSchema()
	rng := rand.New(rand.NewSource(5))
	d := workload.Corpus(s, rng, n)
	d.EnsureEncoded()
	persons := d.ClassEntries("person")
	victim := persons[len(persons)/2]
	b := hquery.DeltaBinding(d, victim)

	scan := timeIt(func() {
		for _, c := range s.Structure.RequiredClasses() {
			core.DeleteCheckClass(c).Holds(b)
		}
	})
	delta := d.SubtreeView(victim)
	counted := timeIt(func() {
		for _, c := range s.Structure.RequiredClasses() {
			_ = d.ClassCount(c) - len(delta.ClassEntries(c))
		}
	})
	fmt.Printf("|D|=%d, deleting one person, %d required classes:\n", d.Len(), len(s.Structure.RequiredClasses()))
	fmt.Printf("  survivor scan (Figure 5 'N' row):        %v\n", scan)
	fmt.Printf("  posting-list length (Section 4 remark):  %v\n", counted)
	fmt.Printf("  speedup: %.0fx\n", float64(scan)/float64(counted))
	fmt.Println("\nshape check: the posting-list count stays O(log |D|) while the survivor scan grows with |D|.")
}

// ---------------------------------------------------------------------
// E8 — Theorem 5.1: everything the inference system derives holds in
// every legal instance we can build.

func runE8() {
	rounds := 200
	if *quick {
		rounds = 40
	}
	rng := rand.New(rand.NewSource(13))
	schemas, derived, holds := 0, 0, 0
	for r := 0; r < rounds; r++ {
		s := workload.RandomSchema(rng, workload.SchemaConfig{
			Classes: rng.Intn(6) + 2, Required: rng.Intn(5) + 1,
			Forbidden: rng.Intn(3), RequiredClasses: rng.Intn(2) + 1, Deep: true,
		})
		if !s.Consistent() {
			continue
		}
		d, err := core.Materialize(s)
		if err != nil {
			fmt.Printf("!! consistent schema failed to materialize: %v\n", err)
			continue
		}
		schemas++
		for _, el := range core.Infer(s).Derived() {
			derived++
			if core.Satisfies(d, el) {
				holds++
			}
		}
	}
	fmt.Printf("consistent random schemas:     %d\n", schemas)
	fmt.Printf("derived elements checked:      %d\n", derived)
	fmt.Printf("holding in the witness:        %d\n", holds)
	fmt.Println("\nshape check: every derived element holds (soundness).")
}

// ---------------------------------------------------------------------
// E9 — Theorem 5.2: the consistency decision is polynomial in the schema
// size, and detects the seeded inconsistent families at every scale.

func runE9() {
	sizes := []int{10, 20, 50, 100, 200, 400}
	if *quick {
		sizes = []int{10, 20, 50, 100}
	}
	fmt.Printf("%8s %8s %8s %14s %12s %10s\n", "|C|", "|Er|", "|Ef|", "decide", "facts", "verdict")
	rng := rand.New(rand.NewSource(17))
	for _, n := range sizes {
		s := workload.RandomSchema(rng, workload.SchemaConfig{
			Classes: n, Required: n, Forbidden: n / 2, RequiredClasses: 3, Deep: true,
		})
		var res core.ConsistencyResult
		el := timeIt(func() { res = core.CheckConsistency(s) })
		fmt.Printf("%8d %8d %8d %14v %12d %10v\n",
			n, len(s.Structure.RequiredRels()), len(s.Structure.ForbiddenRels()), el, res.Facts, res.Consistent)
	}
	fmt.Println("\nseeded inconsistent families (must all be detected):")
	fmt.Printf("%8s %14s %14s\n", "k", "cycle family", "contra family")
	for _, k := range sizes {
		var v1, v2 bool
		t1 := timeIt(func() { v1 = core.CheckConsistency(workload.CyclicSchema(k)).Consistent })
		t2 := timeIt(func() { v2 = core.CheckConsistency(workload.ContradictorySchema(k)).Consistent })
		fmt.Printf("%8d %10v %3v %10v %3v\n", k, t1, !v1, t2, !v2)
	}
	fmt.Println("\nshape check: runtime grows polynomially (roughly with the closed-fact")
	fmt.Println("count), and every seeded family is flagged inconsistent (true).")
}

// ---------------------------------------------------------------------
// E10 — the inconsistency taxonomy of Sections 5.1-5.2.

func runE10() {
	cases := []struct {
		name  string
		build func() *core.Schema
	}{
		{"pure structure cycle (5.1)", func() *core.Schema {
			s := flat("c1", "c2")
			s.Structure.RequireClass("c1")
			s.Structure.RequireRel("c1", core.AxisChild, "c2")
			s.Structure.RequireRel("c2", core.AxisDesc, "c1")
			return s
		}},
		{"hierarchy-induced cycle (5.1)", func() *core.Schema {
			s := core.NewSchema()
			mustCore(s, "c2", core.ClassTop)
			mustCore(s, "c1", "c2")
			mustCore(s, "c4", core.ClassTop)
			mustCore(s, "c3", "c4")
			mustCore(s, "c5", "c1")
			s.Structure.RequireClass("c1")
			s.Structure.RequireRel("c2", core.AxisChild, "c3")
			s.Structure.RequireRel("c4", core.AxisDesc, "c5")
			return s
		}},
		{"direct contradiction (5.2)", func() *core.Schema {
			s := flat("c1", "c2")
			s.Structure.RequireClass("c1")
			s.Structure.RequireRel("c1", core.AxisDesc, "c2")
			_ = s.Structure.ForbidRel("c1", core.AxisDesc, "c2")
			return s
		}},
		{"hierarchy-induced contradiction (5.2)", func() *core.Schema {
			s := core.NewSchema()
			mustCore(s, "c3", core.ClassTop)
			mustCore(s, "c2", "c3")
			mustCore(s, "c1", core.ClassTop)
			s.Structure.RequireClass("c1")
			s.Structure.RequireRel("c1", core.AxisChild, "c2")
			_ = s.Structure.ForbidRel("c1", core.AxisChild, "c3")
			return s
		}},
		{"cycle without c⇓ (footnote 3: consistent)", func() *core.Schema {
			s := flat("c1", "c2")
			s.Structure.RequireRel("c1", core.AxisChild, "c2")
			s.Structure.RequireRel("c2", core.AxisDesc, "c1")
			return s
		}},
	}
	fmt.Printf("%-45s %-12s %s\n", "case", "consistent", "rules on the ⊥ derivation")
	for _, c := range cases {
		s := c.build()
		res := core.CheckConsistency(s)
		rules := "-"
		if !res.Consistent {
			rules = rulesOn(res.Explanation)
		}
		fmt.Printf("%-45s %-12v %s\n", c.name, res.Consistent, rules)
	}
	fmt.Println("\nshape check: the four narrative cases are inconsistent, the footnote")
	fmt.Println("case is consistent.")
}

func flat(classes ...string) *core.Schema {
	s := core.NewSchema()
	for _, c := range classes {
		mustCore(s, c, core.ClassTop)
	}
	return s
}

func mustCore(s *core.Schema, c, super string) {
	if err := s.Classes.AddCore(c, super); err != nil {
		panic(err)
	}
}

// rulesOn lists the distinct inference-rule tags appearing in a
// derivation, in first-use order.
func rulesOn(explanation string) string {
	seen := map[string]bool{}
	var order []string
	for i := 0; i+1 < len(explanation); i++ {
		if explanation[i] != '[' {
			continue
		}
		for j := i + 1; j < len(explanation); j++ {
			if explanation[j] == ']' {
				tag := explanation[i+1 : j]
				if tag != "given" && !seen[tag] {
					seen[tag] = true
					order = append(order, tag)
				}
				i = j
				break
			}
		}
	}
	out := ""
	for k, t := range order {
		if k > 0 {
			out += ","
		}
		out += t
	}
	return out
}

// ---------------------------------------------------------------------
// E12 — ablation: which inconsistencies need the extension rules beyond
// the pairwise Figure 6/7 reconstruction.

func runE12() {
	fmt.Printf("%-52s %-10s %-10s %s\n", "inconsistent case", "pairwise", "full", "rules used")
	for _, hc := range workload.HardCases() {
		pw := core.InferWith(hc.Schema, core.InferOptions{PairwiseOnly: true})
		full := core.InferWith(hc.Schema, core.InferOptions{})
		rules := "-"
		if full.Inconsistent() {
			rules = rulesOn(full.ExplainInconsistency())
		}
		fmt.Printf("%-52s %-10s %-10s %s\n", hc.Name, detects(pw.Inconsistent()), detects(full.Inconsistent()), rules)
	}
	fmt.Println("\nshape check: the full system detects every case; the pairwise subset")
	fmt.Println("misses all of them (each case isolates one extension rule group).")
}

func detects(b bool) string {
	if b {
		return "detected"
	}
	return "missed"
}

// ---------------------------------------------------------------------
// E13 — §7 future work: schema-aided query optimization.

func runE13() {
	n := 50000
	if *quick {
		n = 5000
	}
	s := workload.WhitePagesSchema()
	d := workload.Corpus(s, rand.New(rand.NewSource(7)), n)
	d.EnsureEncoded()
	b := hquery.NewBinding(d)
	facts := core.NewQueryFacts(s)

	queries := []struct {
		name string
		q    hquery.Query
	}{
		{"Q1 (orgGroup without person descendant)",
			hquery.MustParse("(minus (select (objectClass=orgGroup)) (desc (select (objectClass=orgGroup)) (select (objectClass=person))))")},
		{"persons under an organization",
			hquery.MustParse("(anc (select (objectClass=person)) (select (objectClass=organization)))")},
		{"entries whose parent is a person",
			hquery.MustParse("(parent (select (objectClass=top)) (select (objectClass=person)))")},
		{"orgUnits with researcher descendants (no guarantee)",
			hquery.MustParse("(desc (select (objectClass=orgUnit)) (select (objectClass=researcher)))")},
	}
	fmt.Printf("|D|=%d:\n%-46s %12s %12s %8s\n", d.Len(), "query", "raw", "optimized", "folded")
	for _, qq := range queries {
		opt := hquery.Optimize(qq.q, facts)
		raw := timeIt(func() { hquery.Eval(qq.q, b) })
		optT := timeIt(func() { hquery.Eval(opt, b) })
		folded := "no"
		if hquery.String(opt) != hquery.String(qq.q) {
			folded = "yes"
		}
		fmt.Printf("%-46s %12v %12v %8s\n", qq.name, raw, optT, folded)
	}
	fmt.Println("\nshape check: queries the schema guarantees fold partially or fully and")
	fmt.Println("evaluate faster; unguaranteed queries are untouched.")
}
