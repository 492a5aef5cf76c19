package core

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"boundschema/internal/dirtree"
	"boundschema/internal/hquery"
)

// growLegal grows the Figure 1 instance with n additional entries while
// preserving legality w.r.t. the white-pages schema: new orgUnits are
// created under orgGroups together with a person child; new persons are
// created under orgGroups.
func growLegal(t testing.TB, s *Schema, d *dirtree.Directory, rng *rand.Rand, n int) {
	i := 0
	for added := 0; added < n; i++ {
		groups := d.ClassEntries("orgGroup")
		parent := groups[rng.Intn(len(groups))]
		if rng.Intn(2) == 0 {
			u, err := d.AddChild(parent, "ou=g"+strconv.Itoa(i), "orgUnit", "orgGroup", "top")
			if err != nil {
				continue
			}
			p, err := d.AddChild(u, "uid=gp"+strconv.Itoa(i), "person", "top")
			if err != nil {
				t.Fatal(err)
			}
			p.AddValue("name", dirtree.String("grown person"))
			added += 2
		} else {
			p, err := d.AddChild(parent, "uid=p"+strconv.Itoa(i), "person", "top")
			if err != nil {
				continue
			}
			p.AddValue("name", dirtree.String("grown person"))
			added++
		}
	}
}

// randomSubtree builds a random subtree in its own directory; the class
// mix makes it sometimes legality-preserving and sometimes violating.
func randomSubtree(t testing.TB, s *Schema, rng *rand.Rand, n int) *dirtree.Directory {
	sub := dirtree.New(s.Registry)
	kinds := [][]string{
		{"orgUnit", "orgGroup", "top"},
		{"person", "top"},
		{"researcher", "person", "top"},
		{"organization", "orgGroup", "top"},
	}
	var all []*dirtree.Entry
	for i := 0; i < n; i++ {
		cs := kinds[rng.Intn(len(kinds))]
		var e *dirtree.Entry
		var err error
		if len(all) == 0 {
			e, err = sub.AddRoot("cn=d"+strconv.Itoa(i), cs...)
		} else {
			e, err = sub.AddChild(all[rng.Intn(len(all))], "cn=d"+strconv.Itoa(i), cs...)
		}
		if err != nil {
			t.Fatal(err)
		}
		if e.HasClass("person") && rng.Intn(4) != 0 {
			e.AddValue("name", dirtree.String("delta person"))
		}
		all = append(all, e)
	}
	return sub
}

// insertVerdict runs the Figure 5 insertion procedure: content check of
// the grafted Δ plus the per-element Δ-queries.
func insertVerdict(c *Checker, d *dirtree.Directory, root *dirtree.Entry) bool {
	for _, e := range d.SubtreeView(root).Entries() {
		if !c.EntryLegal(e) {
			return false
		}
	}
	b := hquery.DeltaBinding(d, root)
	for _, chk := range InsertChecks(c.Schema().Structure) {
		if !chk.Holds(b) {
			return false
		}
	}
	return true
}

// deleteVerdict runs the Figure 5 deletion procedure before removing the
// subtree.
func deleteVerdict(c *Checker, d *dirtree.Directory, root *dirtree.Entry) bool {
	b := hquery.DeltaBinding(d, root)
	for _, chk := range DeleteChecks(c.Schema().Structure) {
		if !chk.Holds(b) {
			return false
		}
	}
	return true
}

// TestFig5InsertionMatchesFullCheck: for a legal D and an arbitrary
// grafted subtree Δ, the incremental insertion verdict must equal full
// legality of D+Δ (Theorem 4.2, insertion rows).
func TestFig5InsertionMatchesFullCheck(t *testing.T) {
	f := func(seed int64, grow, dsize uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := whitePagesSchema(t)
		c := NewChecker(s)
		d := whitePagesInstance(t, s)
		growLegal(t, s, d, rng, int(grow%20))
		if !c.Legal(d) {
			t.Fatalf("precondition: grown instance must be legal")
		}
		sub := randomSubtree(t, s, rng, int(dsize%6)+1)
		parents := d.Entries()
		parent := parents[rng.Intn(len(parents))]
		root, err := d.GraftSubtree(parent, sub.Roots()[0])
		if err != nil {
			t.Fatal(err)
		}
		inc := insertVerdict(c, d, root)
		full := c.Legal(d)
		if inc != full {
			t.Logf("insert under %s: incremental=%v full=%v\nreport:\n%s",
				parent.DN(), inc, full, c.Check(d))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestFig5DeletionMatchesFullCheck: for a legal D and any subtree Δ, the
// incremental deletion verdict must equal full legality of D−Δ.
func TestFig5DeletionMatchesFullCheck(t *testing.T) {
	f := func(seed int64, grow uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := whitePagesSchema(t)
		c := NewChecker(s)
		d := whitePagesInstance(t, s)
		growLegal(t, s, d, rng, int(grow%20))
		if !c.Legal(d) {
			t.Fatalf("precondition: grown instance must be legal")
		}
		ents := d.Entries()
		root := ents[rng.Intn(len(ents))]
		inc := deleteVerdict(c, d, root)

		after := d.Clone()
		afterRoot := after.ByDN(root.DN())
		if _, err := after.DeleteSubtree(afterRoot); err != nil {
			t.Fatal(err)
		}
		full := c.Legal(after)
		if inc != full {
			t.Logf("delete %s: incremental=%v full=%v\nreport:\n%s",
				root.DN(), inc, full, c.Check(after))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestFig5Table checks the Y/N incremental-testability column against the
// paper's Figure 5.
func TestFig5Table(t *testing.T) {
	rels := map[Axis]bool{ // axis -> incrementally testable on delete
		AxisChild:  false,
		AxisDesc:   false,
		AxisParent: true,
		AxisAnc:    true,
	}
	for ax, wantDel := range rels {
		r := RequiredRel{Source: "a", Axis: ax, Target: "b"}
		if ins := insertCheckRel(r); !ins.Incremental || ins.Query == nil || !ins.WantEmpty {
			t.Errorf("%s insert row wrong: %+v", r.ElementString(), ins)
		}
		del := deleteCheckRel(r)
		if del.Incremental != wantDel {
			t.Errorf("%s delete incremental = %v, want %v", r.ElementString(), del.Incremental, wantDel)
		}
		if wantDel && del.Query != nil {
			t.Errorf("%s delete should need no query", r.ElementString())
		}
		if !wantDel && del.Query == nil {
			t.Errorf("%s delete needs a full recheck query", r.ElementString())
		}
	}
	for _, ax := range []Axis{AxisChild, AxisDesc} {
		fr := ForbiddenRel{Upper: "a", Axis: ax, Lower: "b"}
		if ins := insertCheckForb(fr); !ins.Incremental || ins.Query == nil {
			t.Errorf("%s insert row wrong", fr.ElementString())
		}
		if del := deleteCheckForb(fr); !del.Incremental || del.Query != nil {
			t.Errorf("%s delete row wrong", fr.ElementString())
		}
	}
	if ins := insertCheckClass("a"); !ins.Incremental || ins.Query != nil {
		t.Errorf("required-class insert row wrong")
	}
	del := deleteCheckClass("a")
	if del.Incremental || del.Query == nil || del.WantEmpty {
		t.Errorf("required-class delete row wrong: %+v", del)
	}
}

// TestDeltaCheckHolds exercises the Holds plumbing on a concrete update.
func TestDeltaCheckHolds(t *testing.T) {
	s := whitePagesSchema(t)
	d := whitePagesInstance(t, s)
	// Graft an empty orgUnit under attLabs: breaks orgGroup →de person.
	labs := entryByRDN(t, d, "ou=attLabs")
	sub := dirtree.New(s.Registry)
	if _, err := sub.AddRoot("ou=fresh", "orgUnit", "orgGroup", "top"); err != nil {
		t.Fatal(err)
	}
	root, err := d.GraftSubtree(labs, sub.Roots()[0])
	if err != nil {
		t.Fatal(err)
	}
	b := hquery.DeltaBinding(d, root)

	broken := insertCheckRel(RequiredRel{Source: "orgGroup", Axis: AxisDesc, Target: "person"})
	if broken.Holds(b) {
		t.Errorf("empty orgUnit should break orgGroup →de person")
	}
	fine := insertCheckRel(RequiredRel{Source: "orgUnit", Axis: AxisParent, Target: "orgGroup"})
	if !fine.Holds(b) {
		t.Errorf("fresh orgUnit does have an orgGroup parent")
	}
	forb := insertCheckForb(ForbiddenRel{Upper: "person", Axis: AxisChild, Lower: ClassTop})
	if !forb.Holds(b) {
		t.Errorf("no person gained a child")
	}
}

// TestInsertChecksCoverSchema ensures one check per structure element.
func TestInsertChecksCoverSchema(t *testing.T) {
	s := whitePagesSchema(t)
	ins := InsertChecks(s.Structure)
	del := DeleteChecks(s.Structure)
	want := s.Structure.Size()
	if len(ins) != want || len(del) != want {
		t.Errorf("checks = %d/%d, want %d", len(ins), len(del), want)
	}
}
