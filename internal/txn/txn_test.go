package txn

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/ldif"
	"boundschema/internal/workload"
)

func person(name string) map[string][]dirtree.Value {
	return map[string][]dirtree.Value{"name": {dirtree.String(name)}}
}

func TestNormalizeGroupsSubtrees(t *testing.T) {
	s := workload.WhitePagesSchema()
	d := workload.WhitePagesInstance(s)
	tx := &Transaction{}
	// One inserted subtree of three entries plus an independent person.
	tx.Add("ou=networking,ou=attLabs,o=att", []string{"orgUnit", "orgGroup", "top"}, nil)
	tx.Add("uid=pat,ou=networking,ou=attLabs,o=att", []string{"person", "top"}, person("pat"))
	tx.Add("uid=kim,ou=networking,ou=attLabs,o=att", []string{"person", "top"}, person("kim"))
	tx.Add("uid=lee,ou=databases,ou=attLabs,o=att", []string{"person", "top"}, person("lee"))
	// One deleted subtree: armstrong.
	tx.Delete("uid=armstrong,ou=attLabs,o=att")

	norm, err := Normalize(d, tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(norm.Inserts) != 2 {
		t.Fatalf("inserts = %d, want 2", len(norm.Inserts))
	}
	sizes := []int{norm.Inserts[0].Fragment.Len(), norm.Inserts[1].Fragment.Len()}
	if !(sizes[0] == 3 && sizes[1] == 1 || sizes[0] == 1 && sizes[1] == 3) {
		t.Errorf("fragment sizes = %v, want {3,1}", sizes)
	}
	if len(norm.Deletes) != 1 || norm.Deletes[0] != "uid=armstrong,ou=attLabs,o=att" {
		t.Errorf("deletes = %v", norm.Deletes)
	}
}

func TestNormalizeDeleteSubtreeRoots(t *testing.T) {
	s := workload.WhitePagesSchema()
	d := workload.WhitePagesInstance(s)
	tx := &Transaction{}
	// Delete the whole databases subtree, listed in arbitrary order.
	tx.Delete("uid=laks,ou=databases,ou=attLabs,o=att")
	tx.Delete("ou=databases,ou=attLabs,o=att")
	tx.Delete("uid=suciu,ou=databases,ou=attLabs,o=att")
	norm, err := Normalize(d, tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(norm.Deletes) != 1 || norm.Deletes[0] != "ou=databases,ou=attLabs,o=att" {
		t.Errorf("deletes = %v, want just the subtree root", norm.Deletes)
	}
}

func TestNormalizeErrors(t *testing.T) {
	s := workload.WhitePagesSchema()
	base := "ou=attLabs,o=att"
	cases := []struct {
		name string
		tx   func() *Transaction
		want string
	}{
		{"duplicate op", func() *Transaction {
			tx := &Transaction{}
			tx.Delete("uid=armstrong," + base)
			tx.Delete("uid=armstrong," + base)
			return tx
		}, "duplicate"},
		{"delete missing", func() *Transaction {
			tx := &Transaction{}
			tx.Delete("uid=ghost," + base)
			return tx
		}, "missing"},
		{"orphaning delete", func() *Transaction {
			tx := &Transaction{}
			tx.Delete("ou=databases," + base)
			return tx
		}, "orphan"},
		{"add under missing parent", func() *Transaction {
			tx := &Transaction{}
			tx.Add("uid=x,ou=ghost,"+base, []string{"person", "top"}, nil)
			return tx
		}, "does not exist"},
		{"child before parent", func() *Transaction {
			tx := &Transaction{}
			tx.Add("uid=x,ou=new,"+base, []string{"person", "top"}, nil)
			tx.Add("ou=new,"+base, []string{"orgUnit", "orgGroup", "top"}, nil)
			return tx
		}, "before its parent"},
		{"add below deleted", func() *Transaction {
			tx := &Transaction{}
			tx.Delete("uid=laks,ou=databases," + base)
			tx.Delete("uid=suciu,ou=databases," + base)
			tx.Delete("ou=databases," + base)
			tx.Add("uid=x,ou=databases,"+base, []string{"person", "top"}, nil)
			return tx
		}, "deleted"},
		{"move below deleted", func() *Transaction {
			tx := &Transaction{}
			tx.Move("uid=armstrong,"+base, "ou=databases,"+base)
			tx.Move("ou=databases,"+base, "o=att")
			return tx
		}, "moved below deleted"},
		{"move onto an added DN", func() *Transaction {
			tx := &Transaction{}
			tx.Move("uid=laks,ou=databases,"+base, base)
			tx.Add("uid=laks,"+base, []string{"person", "top"}, nil)
			return tx
		}, "duplicate operation"},
		{"add existing", func() *Transaction {
			tx := &Transaction{}
			tx.Add("uid=armstrong,"+base, []string{"person", "top"}, nil)
			return tx
		}, "already exists"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := workload.WhitePagesInstance(s)
			_, err := Normalize(d, c.tx())
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestApplyLegalTransaction(t *testing.T) {
	s := workload.WhitePagesSchema()
	d := workload.WhitePagesInstance(s)
	a := NewApplier(s)
	tx := &Transaction{}
	tx.Add("ou=networking,ou=attLabs,o=att", []string{"orgUnit", "orgGroup", "top"}, nil)
	tx.Add("uid=pat,ou=networking,ou=attLabs,o=att", []string{"person", "top"}, person("pat"))
	tx.Delete("uid=armstrong,ou=attLabs,o=att")

	r, err := a.Apply(d, tx)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Legal() {
		t.Fatalf("legal transaction rejected:\n%s", r)
	}
	if d.ByDN("uid=pat,ou=networking,ou=attLabs,o=att") == nil {
		t.Errorf("insert not applied")
	}
	if d.ByDN("uid=armstrong,ou=attLabs,o=att") != nil {
		t.Errorf("delete not applied")
	}
	if rep := core.NewChecker(s).Check(d); !rep.Legal() {
		t.Fatalf("instance illegal after apply:\n%s", rep)
	}
}

func TestApplyRollsBackOnViolation(t *testing.T) {
	s := workload.WhitePagesSchema()
	d := workload.WhitePagesInstance(s)
	before := d.String()
	a := NewApplier(s)

	// The Section 4.2 example: an empty orgUnit violates
	// orgGroup →de person.
	tx := &Transaction{}
	tx.Add("uid=extra,ou=databases,ou=attLabs,o=att", []string{"person", "top"}, person("extra"))
	tx.Add("ou=empty,ou=attLabs,o=att", []string{"orgUnit", "orgGroup", "top"}, nil)
	r, err := a.Apply(d, tx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Legal() {
		t.Fatalf("violating transaction accepted")
	}
	if d.String() != before {
		t.Errorf("rollback incomplete:\n%s\nvs\n%s", d.String(), before)
	}
	if d.Len() != 6 {
		t.Errorf("len = %d after rollback, want 6", d.Len())
	}
}

func TestApplyPaperSuciuExample(t *testing.T) {
	// Section 4.2: adding an orgUnit under suciu violates both
	// orgUnit →pa orgGroup (the unit's parent is a person) and
	// person ⇥ch top.
	s := workload.WhitePagesSchema()
	d := workload.WhitePagesInstance(s)
	a := NewApplier(s)
	tx := &Transaction{}
	tx.Add("ou=bad,uid=suciu,ou=databases,ou=attLabs,o=att", []string{"orgUnit", "orgGroup", "top"}, nil)
	tx.Add("uid=kid,ou=bad,uid=suciu,ou=databases,ou=attLabs,o=att", []string{"person", "top"}, person("kid"))
	r, err := a.Apply(d, tx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Legal() {
		t.Fatalf("paper's violating insertion accepted")
	}
	kinds := map[core.ViolationKind]bool{}
	for _, v := range r.Violations {
		kinds[v.Kind] = true
	}
	if !kinds[core.ViolationRequiredRel] || !kinds[core.ViolationForbiddenRel] {
		t.Errorf("expected both violation kinds, got:\n%s", r)
	}
}

func TestDeleteLastPersonRejected(t *testing.T) {
	s := workload.WhitePagesSchema()
	d := workload.WhitePagesInstance(s)
	// Deleting all three persons breaks person⇓ and orgGroup →de person.
	tx := &Transaction{}
	tx.Delete("uid=armstrong,ou=attLabs,o=att")
	tx.Delete("uid=laks,ou=databases,ou=attLabs,o=att")
	tx.Delete("uid=suciu,ou=databases,ou=attLabs,o=att")

	// "scan" rechecks the forced survivors in full; "count-index" is the
	// applier, which counts the class posting lists.
	t.Run("scan", func(t *testing.T) {
		forced := d.Clone()
		if err := forceApply(forced, tx); err != nil {
			t.Fatal(err)
		}
		if core.NewChecker(s).Check(forced).Legal() {
			t.Fatalf("full recheck accepts deleting every person")
		}
	})
	t.Run("count-index", func(t *testing.T) {
		dd := d.Clone()
		r, err := NewApplier(s).Apply(dd, tx)
		if err != nil {
			t.Fatal(err)
		}
		if r.Legal() {
			t.Fatalf("deleting every person accepted")
		}
		if dd.Len() != 6 || dd.String() != d.String() {
			t.Errorf("rollback incomplete:\n%s", dd)
		}
		// The posting lists reflect the rolled-back state.
		if n := dd.ClassCount("person"); n != 3 {
			t.Errorf("person posting list desynced: %d", n)
		}
	})
}

func TestFromRecords(t *testing.T) {
	src := `dn: uid=new,ou=attLabs,o=att
changetype: add
objectClass: person
objectClass: top
name: new person

dn: uid=armstrong,ou=attLabs,o=att
changetype: delete
`
	recs, err := ldif.NewReader(strings.NewReader(src)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	s := workload.WhitePagesSchema()
	tx, err := FromRecords(recs, s.Registry)
	if err != nil {
		t.Fatal(err)
	}
	if tx.Len() != 2 || tx.Ops[0].Kind != OpAdd || tx.Ops[1].Kind != OpDelete {
		t.Fatalf("tx = %+v", tx)
	}
	d := workload.WhitePagesInstance(s)
	a := NewApplier(s)
	r, err := a.Apply(d, tx)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Legal() {
		t.Fatalf("LDIF transaction rejected:\n%s", r)
	}
}

func TestFromRecordsRejectsContentRecord(t *testing.T) {
	recs := []*ldif.Record{{DN: "o=x", Change: ldif.ChangeNone}}
	if _, err := FromRecords(recs, dirtree.NewRegistry()); err == nil {
		t.Error("content record accepted as change")
	}
}

// randomTransaction builds a mix of legality-preserving and violating
// operations.
func randomTransaction(s *core.Schema, d *dirtree.Directory, rng *rand.Rand, n int) *Transaction {
	tx := &Transaction{}
	ents := d.Entries()
	used := map[string]bool{}
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0: // insert a well-formed orgUnit+person under a random entry
			parent := ents[rng.Intn(len(ents))]
			dn := "ou=t" + itoa(i) + "," + parent.DN()
			if used[dn] {
				continue
			}
			used[dn] = true
			tx.Add(dn, []string{"orgUnit", "orgGroup", "top"}, nil)
			tx.Add("uid=tp"+itoa(i)+","+dn, []string{"person", "top"}, person("t"))
		case 1: // insert a bare person under a random entry
			parent := ents[rng.Intn(len(ents))]
			dn := "uid=s" + itoa(i) + "," + parent.DN()
			if used[dn] {
				continue
			}
			used[dn] = true
			attrs := person("s")
			if rng.Intn(5) == 0 {
				attrs = nil // missing required name: content violation
			}
			tx.Add(dn, []string{"person", "top"}, attrs)
		case 2: // insert an empty orgUnit (often violating)
			parent := ents[rng.Intn(len(ents))]
			dn := "ou=e" + itoa(i) + "," + parent.DN()
			if used[dn] {
				continue
			}
			used[dn] = true
			tx.Add(dn, []string{"orgUnit", "orgGroup", "top"}, nil)
		default: // delete a random leaf (and sometimes a subtree)
			e := ents[rng.Intn(len(ents))]
			if e.Parent() == nil {
				continue
			}
			ok := true
			var dns []string
			var collect func(x *dirtree.Entry)
			collect = func(x *dirtree.Entry) {
				if used[x.DN()] {
					ok = false
					return
				}
				dns = append(dns, x.DN())
				for _, c := range x.Children() {
					collect(c)
				}
			}
			collect(e)
			if !ok || len(dns) > 8 {
				continue
			}
			for _, dn := range dns {
				used[dn] = true
				tx.Delete(dn)
			}
		}
	}
	return tx
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	s := ""
	for i > 0 {
		s = string(rune('0'+i%10)) + s
		i /= 10
	}
	return s
}

func TestRootInsertion(t *testing.T) {
	s := workload.WhitePagesSchema()
	d := workload.WhitePagesInstance(s)
	a := NewApplier(s)
	tx := &Transaction{}
	// A second legal organization tree at the root.
	tx.Add("o=bell", []string{"organization", "orgGroup", "top"}, nil)
	tx.Add("ou=unit,o=bell", []string{"orgUnit", "orgGroup", "top"}, nil)
	tx.Add("uid=who,ou=unit,o=bell", []string{"person", "top"}, person("who"))
	r, err := a.Apply(d, tx)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Legal() {
		t.Fatalf("legal root insertion rejected:\n%s", r)
	}
	if len(d.Roots()) != 2 {
		t.Errorf("roots = %d, want 2", len(d.Roots()))
	}
	if rep := core.NewChecker(s).Check(d); !rep.Legal() {
		t.Fatalf("instance illegal after root insert:\n%s", rep)
	}
}

// TestApplierModes: what the two retired modes did still exists, but
// not as modes. The unchecked apply is the oracles' forceApply, and
// the one applier rejects and rolls back where the full recheck did.
func TestApplierModes(t *testing.T) {
	s := workload.WhitePagesSchema()
	// An orgGroup with no person below it breaks orgGroup →de person.
	tx := &Transaction{}
	tx.Add("ou=empty,ou=attLabs,o=att", []string{"orgUnit", "orgGroup", "top"}, nil)

	t.Run("CheckNone applies without validation", func(t *testing.T) {
		d := workload.WhitePagesInstance(s)
		if err := forceApply(d, tx); err != nil {
			t.Fatal(err)
		}
		if d.Len() != 7 {
			t.Fatalf("forced apply left %d entries, want 7", d.Len())
		}
		// The instance is now actually illegal.
		if core.NewChecker(s).Check(d).Legal() {
			t.Fatalf("expected the forced instance to be illegal")
		}
	})

	t.Run("CheckFull rejects and rolls back", func(t *testing.T) {
		forced := workload.WhitePagesInstance(s)
		if err := forceApply(forced, tx); err != nil {
			t.Fatal(err)
		}
		full := core.NewChecker(s).Check(forced)

		d := workload.WhitePagesInstance(s)
		before := d.String()
		r, err := NewApplier(s).Apply(d, tx)
		if err != nil {
			t.Fatal(err)
		}
		if r.Legal() {
			t.Fatalf("violating insert accepted")
		}
		if got, want := elementSet(r), elementSet(full); len(got) != len(want) {
			t.Errorf("violated elements = %v, full recheck = %v", got, want)
		} else {
			for el := range got {
				if !want[el] {
					t.Errorf("applier reports %q, full recheck does not", el)
				}
			}
		}
		if d.Len() != 6 || d.String() != before {
			t.Errorf("rollback incomplete:\n%s", d)
		}
	})
}

// TestCountIndexLifecycle: the c⇓ deletion row reads the directory's
// class posting lists through insertion, deletion and refusal; the
// deprecated CountIndex is accepted and ignored.
func TestCountIndexLifecycle(t *testing.T) {
	s := workload.WhitePagesSchema()
	d := workload.WhitePagesInstance(s)
	a := NewApplier(s)
	a.Counts = NewCountIndex(d)

	ins := &Transaction{}
	ins.Add("ou=new,ou=attLabs,o=att", []string{"orgUnit", "orgGroup", "top"}, nil)
	ins.Add("uid=np,ou=new,ou=attLabs,o=att", []string{"person", "top"}, person("np"))
	if r, err := a.Apply(d, ins); err != nil || !r.Legal() {
		t.Fatalf("insert: %v %s", err, r)
	}
	if n := d.ClassCount("person"); n != 4 {
		t.Fatalf("person count after insert = %d, want 4", n)
	}
	// The three original persons may go: the new one survives.
	del := &Transaction{}
	for _, dn := range []string{"uid=armstrong,ou=attLabs,o=att", "ou=databases,ou=attLabs,o=att",
		"uid=laks,ou=databases,ou=attLabs,o=att", "uid=suciu,ou=databases,ou=attLabs,o=att"} {
		del.Delete(dn)
	}
	if r, err := a.Apply(d, del); err != nil || !r.Legal() {
		t.Fatalf("delete: %v %s", err, r)
	}
	if n := d.ClassCount("person"); n != 1 {
		t.Fatalf("person count after delete = %d, want 1", n)
	}
	// The last person may not.
	before := d.String()
	last := &Transaction{}
	last.Delete("uid=np,ou=new,ou=attLabs,o=att")
	last.Delete("ou=new,ou=attLabs,o=att")
	r, err := a.Apply(d, last)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ByKind(core.ViolationMissingClass)) == 0 {
		t.Fatalf("deleting the last person must break person⇓:\n%s", r)
	}
	if d.String() != before || d.ClassCount("person") != 1 {
		t.Errorf("refusal changed the instance")
	}
}

func TestApplierKeyIndex(t *testing.T) {
	s := workload.WhitePagesSchema()
	s.Attrs.Allow("person", "employeeID")
	s.DeclareKey("employeeID")
	d := workload.WhitePagesInstance(s)
	laks := d.ByDN("uid=laks,ou=databases,ou=attLabs,o=att")
	laks.AddValue("employeeID", dirtree.String("E-1"))

	a := NewApplier(s)

	attrs := func(id string) map[string][]dirtree.Value {
		return map[string][]dirtree.Value{
			"name":       {dirtree.String("x")},
			"employeeID": {dirtree.String(id)},
		}
	}
	// Colliding key: rejected and rolled back.
	tx := &Transaction{}
	tx.Add("uid=dup,ou=attLabs,o=att", []string{"person", "top"}, attrs("E-1"))
	r, err := a.Apply(d, tx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Legal() {
		t.Fatalf("key collision accepted")
	}
	if len(r.ByKind(core.ViolationDuplicateKey)) == 0 {
		t.Fatalf("wrong violation kind:\n%s", r)
	}
	if d.Len() != 6 {
		t.Errorf("rollback incomplete")
	}
	// Fresh key: accepted; then its value becomes occupied.
	tx = &Transaction{}
	tx.Add("uid=ok,ou=attLabs,o=att", []string{"person", "top"}, attrs("E-2"))
	if r, err := a.Apply(d, tx); err != nil || !r.Legal() {
		t.Fatalf("fresh key rejected: %v %s", err, r)
	}
	tx = &Transaction{}
	tx.Add("uid=dup2,ou=attLabs,o=att", []string{"person", "top"}, attrs("E-2"))
	if r, err := a.Apply(d, tx); err != nil || r.Legal() {
		t.Fatalf("occupied key accepted: %v", err)
	}
	// Deleting the holder frees the key.
	tx = &Transaction{}
	tx.Delete("uid=ok,ou=attLabs,o=att")
	if r, err := a.Apply(d, tx); err != nil || !r.Legal() {
		t.Fatalf("delete rejected: %v %s", err, r)
	}
	tx = &Transaction{}
	tx.Add("uid=dup3,ou=attLabs,o=att", []string{"person", "top"}, attrs("E-2"))
	if r, err := a.Apply(d, tx); err != nil || !r.Legal() {
		t.Fatalf("freed key rejected: %v %s", err, r)
	}
}

func TestMoveSubtree(t *testing.T) {
	s := workload.WhitePagesSchema()
	d := workload.WhitePagesInstance(s)
	a := NewApplier(s)

	// Move the databases unit (and its two researchers) directly under
	// the organization. Everything stays legal.
	tx := &Transaction{}
	tx.Move("ou=databases,ou=attLabs,o=att", "o=att")
	r, err := a.Apply(d, tx)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Legal() {
		t.Fatalf("legal move rejected:\n%s", r)
	}
	if d.ByDN("ou=databases,ou=attLabs,o=att") != nil {
		t.Errorf("origin still present")
	}
	moved := d.ByDN("uid=laks,ou=databases,o=att")
	if moved == nil {
		t.Fatalf("moved descendant missing")
	}
	if n := len(moved.Attr("mail")); n != 2 {
		t.Errorf("moved entry lost attributes: mail=%d", n)
	}
	if rep := core.NewChecker(s).Check(d); !rep.Legal() {
		t.Fatalf("instance illegal after move:\n%s", rep)
	}
}

func TestMoveRejectedWhenIllegal(t *testing.T) {
	s := workload.WhitePagesSchema()
	d := workload.WhitePagesInstance(s)
	before := d.String()
	a := NewApplier(s)

	// Moving the unit under a person breaks person ⇥ch top and
	// orgUnit →pa orgGroup.
	tx := &Transaction{}
	tx.Move("ou=databases,ou=attLabs,o=att", "uid=armstrong,ou=attLabs,o=att")
	r, err := a.Apply(d, tx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Legal() {
		t.Fatalf("illegal move accepted")
	}
	if d.String() != before {
		t.Errorf("rollback incomplete after rejected move")
	}
}

func TestMoveErrors(t *testing.T) {
	s := workload.WhitePagesSchema()
	d := workload.WhitePagesInstance(s)
	cases := []struct {
		name, dn, dest, want string
	}{
		{"missing source", "ou=ghost,o=att", "o=att", "missing"},
		{"missing destination", "ou=databases,ou=attLabs,o=att", "ou=ghost,o=att", "does not exist"},
		{"below itself", "ou=attLabs,o=att", "ou=databases,ou=attLabs,o=att", "below itself"},
		{"target exists", "ou=databases,ou=attLabs,o=att", "ou=databases,ou=attLabs,o=att", "below itself"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tx := &Transaction{}
			tx.Move(c.dn, c.dest)
			if _, err := Normalize(d, tx); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestMoveToRoot(t *testing.T) {
	s := workload.WhitePagesSchema()
	d := workload.WhitePagesInstance(s)
	a := NewApplier(s)
	// An orgUnit at the root violates orgUnit →pa orgGroup: rejected.
	tx := &Transaction{}
	tx.Move("ou=databases,ou=attLabs,o=att", "")
	r, err := a.Apply(d, tx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Legal() {
		t.Fatalf("root move should violate orgUnit →pa orgGroup")
	}
	if d.Len() != 6 {
		t.Errorf("rollback incomplete")
	}
}

func TestMoveWithKeyIndex(t *testing.T) {
	s := workload.WhitePagesSchema()
	s.Attrs.Allow("person", "employeeID")
	s.DeclareKey("employeeID")
	d := workload.WhitePagesInstance(s)
	laks := d.ByDN("uid=laks,ou=databases,ou=attLabs,o=att")
	laks.AddValue("employeeID", dirtree.String("E-1"))

	a := NewApplier(s)
	// Moving the subtree that HOLDS the key must not self-collide.
	tx := &Transaction{}
	tx.Move("ou=databases,ou=attLabs,o=att", "o=att")
	r, err := a.Apply(d, tx)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Legal() {
		t.Fatalf("self-move flagged as key collision:\n%s", r)
	}
	// The key is still indexed at its new location: a fresh duplicate is
	// rejected.
	tx = &Transaction{}
	tx.Add("uid=dup,ou=attLabs,o=att", []string{"person", "top"},
		map[string][]dirtree.Value{
			"name":       {dirtree.String("dup")},
			"employeeID": {dirtree.String("E-1")},
		})
	r, err = a.Apply(d, tx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Legal() {
		t.Fatalf("duplicate of moved key accepted")
	}
}

// TestDefaultApplierRefusesDuplicateKey: the applier NewApplier returns
// enforces Section 6.1 key uniqueness with no further setup, so Apply's
// contract (an update that would make the instance illegal is rolled
// back) covers keys too.
func TestDefaultApplierRefusesDuplicateKey(t *testing.T) {
	s := workload.NetPolicySchema()
	d := workload.NetPolicyCorpus(s, rand.New(rand.NewSource(1)), 200)
	before := d.String()
	tx := &Transaction{}
	tx.Add("cn=dup,ou=lab net 0,o=backbone", []string{"host", "netElement", "top"},
		map[string][]dirtree.Value{"ipAddress": {dirtree.String("10.0.0.0")}})
	r, err := NewApplier(s).Apply(d, tx)
	if err != nil {
		t.Fatal(err)
	}
	want := `duplicate-key at cn=dup,ou=lab net 0,o=backbone: key ipAddress="10.0.0.0" already used by cn=gw0,ou=lab net 0,o=backbone`
	if len(r.Violations) != 1 || r.Violations[0].String() != want {
		t.Fatalf("report:\n%s\nwant the single line\n%s", r, want)
	}
	if d.String() != before {
		t.Errorf("refused transaction changed the instance")
	}
	if rep := core.NewChecker(s).Check(d); !rep.Legal() {
		t.Fatalf("instance illegal after refusal:\n%s", rep)
	}
}

// TestNarrowedDeleteCheck pins the posting-list form of Figure 5's
// downward deletion rows on a schema where the →de source class is a
// subclass of its target (so the ancestor's own posting must not count
// as its witness), the violated ancestor is not Δ's parent, and a →ch
// parent keeps or loses its last witness child.
func TestNarrowedDeleteCheck(t *testing.T) {
	s := core.NewSchema()
	for _, c := range [][2]string{{"a", core.ClassTop}, {"b", "a"}, {"g", core.ClassTop}} {
		if err := s.Classes.AddCore(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	de := core.RequiredRel{Source: "b", Axis: core.AxisDesc, Target: "a"}
	ch := core.RequiredRel{Source: "g", Axis: core.AxisChild, Target: "a"}
	s.Structure.RequireRel(de.Source, de.Axis, de.Target)
	s.Structure.RequireRel(ch.Source, ch.Axis, ch.Target)
	d := dirtree.New(s.Registry)
	add := func(parent *dirtree.Entry, rdn string, classes ...string) *dirtree.Entry {
		var e *dirtree.Entry
		var err error
		if parent == nil {
			e, err = d.AddRoot(rdn, append(classes, core.ClassTop)...)
		} else {
			e, err = d.AddChild(parent, rdn, append(classes, core.ClassTop)...)
		}
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	r := add(nil, "cn=r", "b", "a")
	x := add(r, "cn=x", "g")
	y := add(x, "cn=y", "a")
	q := add(nil, "cn=q", "g")
	y1 := add(q, "cn=y1", "a")
	add(q, "cn=y2", "a")
	checker := core.NewChecker(s)
	if rep := checker.Check(d); !rep.Legal() {
		t.Fatalf("fixture illegal:\n%s", rep)
	}
	for _, c := range []struct {
		victim         *dirtree.Entry
		wantDe, wantCh *dirtree.Entry
	}{
		{y, r, x},      // r's only a-descendant besides itself; x's only a-child
		{x, r, nil},    // r loses y; r is no g
		{y1, nil, nil}, // q keeps y2
		{q, nil, nil},  // a root: no ancestor loses anything
	} {
		gotDe, gotCh := NarrowedDeleteCheck(d, c.victim, de), NarrowedDeleteCheck(d, c.victim, ch)
		if gotDe != c.wantDe || gotCh != c.wantCh {
			t.Errorf("delete %s: →de witness %v (want %v), →ch witness %v (want %v)",
				c.victim.DN(), gotDe, c.wantDe, gotCh, c.wantCh)
		}
		after := d.Clone()
		if _, err := after.DeleteSubtree(after.ByDN(c.victim.DN())); err != nil {
			t.Fatal(err)
		}
		if full := checker.Legal(after); full != (gotDe == nil && gotCh == nil) {
			t.Errorf("delete %s: counted verdict disagrees with the full recheck (%v)", c.victim.DN(), full)
		}
	}
}

// TestWriteChangesRoundTrip: a transaction serialized as LDIF change
// records parses back to an equivalent transaction, and both apply to the
// same result.
func TestWriteChangesRoundTrip(t *testing.T) {
	s := workload.WhitePagesSchema()
	tx := &Transaction{}
	tx.Add("ou=networking,ou=attLabs,o=att", []string{"orgUnit", "orgGroup", "top"}, nil)
	tx.Add("uid=pat,ou=networking,ou=attLabs,o=att", []string{"person", "top"},
		map[string][]dirtree.Value{"name": {dirtree.String("pat doe")}})
	tx.Delete("uid=armstrong,ou=attLabs,o=att")
	tx.Move("ou=databases,ou=attLabs,o=att", "o=att")

	var buf strings.Builder
	if err := tx.WriteChanges(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := ldif.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("serialized changes do not parse: %v\n%s", err, buf.String())
	}
	back, err := FromRecords(recs, s.Registry)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tx.Len() {
		t.Fatalf("op count changed: %d -> %d", tx.Len(), back.Len())
	}
	for i, op := range tx.Ops {
		if back.Ops[i].Kind != op.Kind || back.Ops[i].DN != op.DN || back.Ops[i].NewParentDN != op.NewParentDN {
			t.Errorf("op %d changed: %+v -> %+v", i, op, back.Ops[i])
		}
	}

	d1 := workload.WhitePagesInstance(s)
	d2 := workload.WhitePagesInstance(s)
	a := NewApplier(s)
	r1, err1 := a.Apply(d1, tx)
	r2, err2 := a.Apply(d2, back)
	if err1 != nil || err2 != nil {
		t.Fatalf("apply: %v / %v", err1, err2)
	}
	if r1.Legal() != r2.Legal() || d1.String() != d2.String() {
		t.Fatalf("round-tripped transaction applies differently")
	}
}

func TestOpKindString(t *testing.T) {
	if OpAdd.String() != "add" || OpDelete.String() != "delete" || OpMove.String() != "move" {
		t.Errorf("OpKind strings wrong")
	}
	if OpKind(99).String() != "?" {
		t.Errorf("unknown kind should render ?")
	}
	s := workload.WhitePagesSchema()
	a := NewApplier(s)
	if a.Checker() == nil || a.Checker().Schema() != s {
		t.Errorf("Checker accessor wrong")
	}
}

// TestRefusedAddLeavesNoClassSets: a refused ADD whose entries carry a
// thousand novel class names leaves the directory's class-set table
// holding exactly the sets it held before.
func TestRefusedAddLeavesNoClassSets(t *testing.T) {
	s := workload.WhitePagesSchema()
	d := workload.WhitePagesInstance(s)
	live := func() int {
		n := 0
		for _, cs := range d.ClassSets() {
			if cs != nil {
				n++
			}
		}
		return n
	}
	before := live()
	tx := &Transaction{}
	for i := 0; i < 10; i++ {
		classes := []string{"person", "top"}
		for j := 0; j < 100; j++ {
			classes = append(classes, fmt.Sprintf("novel%d_%d", i, j))
		}
		tx.Add(fmt.Sprintf("uid=novel%d,ou=databases,ou=attLabs,o=att", i), classes, person("novel"))
	}
	r, err := NewApplier(s).Apply(d, tx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Legal() {
		t.Fatal("ADD with undeclared classes accepted")
	}
	if got := live(); got != before {
		t.Fatalf("refused ADD left %d class sets, want %d", got, before)
	}
}
