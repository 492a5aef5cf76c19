package core

import (
	"testing"

	"boundschema/internal/dirtree"
)

func keySchema(t *testing.T) *Schema {
	s := whitePagesSchema(t)
	s.Attrs.Allow("person", "ssn")
	s.DeclareKey("ssn")
	return s
}

func TestKeysDeclaration(t *testing.T) {
	s := keySchema(t)
	if !s.IsKey("ssn") || s.IsKey("name") {
		t.Errorf("IsKey wrong")
	}
	if got := s.Keys(); len(got) != 1 || got[0] != "ssn" {
		t.Errorf("Keys = %v", got)
	}
	c := s.Clone()
	if !c.IsKey("ssn") {
		t.Errorf("Clone lost keys")
	}
	c.DeclareKey("mail")
	if s.IsKey("mail") {
		t.Errorf("Clone not independent")
	}
}

func TestCheckKeys(t *testing.T) {
	s := keySchema(t)
	d := whitePagesInstance(t, s)
	laks := entryByRDN(t, d, "uid=laks")
	suciu := entryByRDN(t, d, "uid=suciu")
	laks.AddValue("ssn", dirtree.String("123-45-6789"))
	suciu.AddValue("ssn", dirtree.String("987-65-4321"))

	checker := NewChecker(s)
	if r := checker.Check(d); !r.Legal() {
		t.Fatalf("distinct keys flagged:\n%s", r)
	}
	suciu.SetValues("ssn", dirtree.String("123-45-6789"))
	r := checker.Check(d)
	if got := len(r.ByKind(ViolationDuplicateKey)); got != 1 {
		t.Fatalf("duplicate-key violations = %d:\n%s", got, r)
	}
	if checker.Legal(d) {
		t.Errorf("Legal() misses duplicate keys")
	}
	// Two values on the SAME entry are not a pair violation.
	suciu.SetValues("ssn", dirtree.String("1"), dirtree.String("1"))
	// (value sets dedupe; simulate same value across attrs is fine)
	if r := checker.CheckKeys(d); !r.Legal() {
		t.Errorf("single-entry values flagged:\n%s", r)
	}
}

// TestKeyIndexIncremental drives CheckInsertKeys, the Section 6.1
// insertion check read off the directory's value indexes: collisions
// with existing holders, with earlier insertions, and the excuse for
// holders under a root the same update deletes.
func TestKeyIndexIncremental(t *testing.T) {
	s := keySchema(t)
	c := NewChecker(s)
	d := whitePagesInstance(t, s)
	laks := entryByRDN(t, d, "uid=laks")
	laks.AddValue("ssn", dirtree.String("123"))

	// A fresh subtree with a colliding key.
	frag := dirtree.New(s.Registry)
	fr, _ := frag.AddRoot("ou=new", "orgUnit", "orgGroup", "top")
	p, _ := frag.AddChild(fr, "uid=clone", "person", "top")
	p.AddValue("name", dirtree.String("clone"))
	p.AddValue("ssn", dirtree.String("123"))
	root, err := d.GraftSubtree(entryByRDN(t, d, "ou=attLabs"), frag.Roots()[0])
	if err != nil {
		t.Fatal(err)
	}
	r := c.CheckInsertKeys(d, root, nil)
	want := `duplicate-key at uid=clone,ou=new,ou=attLabs,o=att: key ssn="123" already used by uid=laks,ou=databases,ou=attLabs,o=att`
	if len(r.Violations) != 1 || r.Violations[0].String() != want {
		t.Fatalf("colliding key report:\n%s\nwant the single line\n%s", r, want)
	}
	// Fix the collision in place: the patched value index now agrees.
	clone := d.ByDN("uid=clone,ou=new,ou=attLabs,o=att")
	clone.SetValues("ssn", dirtree.String("456"))
	if r := c.CheckInsertKeys(d, root, nil); !r.Legal() {
		t.Fatalf("distinct key rejected:\n%s", r)
	}

	// A second subtree duplicating the newly inserted value.
	frag2 := dirtree.New(s.Registry)
	f2, _ := frag2.AddRoot("ou=more", "orgUnit", "orgGroup", "top")
	q, _ := frag2.AddChild(f2, "uid=dup", "person", "top")
	q.AddValue("name", dirtree.String("dup"))
	q.AddValue("ssn", dirtree.String("456"))
	root2, err := d.GraftSubtree(entryByRDN(t, d, "ou=attLabs"), frag2.Roots()[0])
	if err != nil {
		t.Fatal(err)
	}
	if r := c.CheckInsertKeys(d, root2, nil); r.Legal() {
		t.Fatalf("duplicate of inserted key accepted")
	}
	// A holder under a root the same update deletes is excused.
	if r := c.CheckInsertKeys(d, root2, []string{root.DN()}); !r.Legal() {
		t.Fatalf("holder under a deleting root still collides:\n%s", r)
	}
	// Deleting the first subtree frees the value.
	if _, err := d.DeleteSubtree(root); err != nil {
		t.Fatal(err)
	}
	if r := c.CheckInsertKeys(d, root2, nil); !r.Legal() {
		t.Fatalf("freed key still rejected:\n%s", r)
	}
}

func TestKeyIndexInternalDuplicate(t *testing.T) {
	s := keySchema(t)
	d := whitePagesInstance(t, s)
	frag := dirtree.New(s.Registry)
	fr, _ := frag.AddRoot("ou=new", "orgUnit", "orgGroup", "top")
	for _, uid := range []string{"a", "b"} {
		p, _ := frag.AddChild(fr, "uid="+uid, "person", "top")
		p.AddValue("name", dirtree.String(uid))
		p.AddValue("ssn", dirtree.String("same"))
	}
	root, err := d.GraftSubtree(entryByRDN(t, d, "ou=attLabs"), frag.Roots()[0])
	if err != nil {
		t.Fatal(err)
	}
	r := NewChecker(s).CheckInsertKeys(d, root, nil)
	want := `duplicate-key at uid=b,ou=new,ou=attLabs,o=att: key ssn="same" duplicated within the insertion (also on uid=a,ou=new,ou=attLabs,o=att)`
	if len(r.Violations) != 1 || r.Violations[0].String() != want {
		t.Fatalf("within-insertion duplicate report:\n%s\nwant the single line\n%s", r, want)
	}
}

func TestEvolutionKeyAddition(t *testing.T) {
	old := whitePagesSchema(t)
	old.Attrs.Allow("person", "ssn")
	d := whitePagesInstance(t, old)
	for _, rdn := range []string{"uid=laks", "uid=suciu"} {
		entryByRDN(t, d, rdn).AddValue("ssn", dirtree.String("same"))
	}
	if !NewChecker(old).Check(d).Legal() {
		t.Fatal("fixture must be legal under the old schema")
	}
	new := old.Clone()
	new.DeclareKey("ssn")
	plan := PlanEvolution(old, new)
	if plan.Lightweight() {
		t.Fatalf("declaring a key must not be lightweight:\n%s", plan)
	}
	r := CheckEvolution(new, d, plan)
	if len(r.ByKind(ViolationDuplicateKey)) == 0 {
		t.Fatalf("existing duplicates not caught:\n%s", r)
	}
	// Dropping a key is lightweight.
	plan2 := PlanEvolution(new, old)
	if !plan2.Lightweight() {
		t.Fatalf("dropping a key must be lightweight:\n%s", plan2)
	}
}

func TestMaterializeWithKeyedRequiredAttr(t *testing.T) {
	s := whitePagesSchema(t)
	s.Attrs.Require("person", "employeeID")
	s.DeclareKey("employeeID")
	// Force several persons in the witness so colliding placeholders
	// would be caught.
	s.Structure.RequireClass("researcher")
	s.Structure.RequireClass("staffMember")
	d, err := Materialize(s)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if r := NewChecker(s).Check(d); !r.Legal() {
		t.Fatalf("keyed witness illegal:\n%s", r)
	}
	if d.ClassCount("person") < 2 {
		t.Fatalf("witness should contain several persons")
	}
}

// TestMaterializeWithKeyedIntAttr covers the non-string placeholder
// paths.
func TestMaterializeWithKeyedIntAttr(t *testing.T) {
	s := whitePagesSchema(t)
	s.Registry.Declare("badge", dirtree.TypeInt)
	s.Attrs.Require("person", "badge")
	s.DeclareKey("badge")
	s.Structure.RequireClass("researcher")
	s.Structure.RequireClass("staffMember")
	d, err := Materialize(s)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if r := NewChecker(s).Check(d); !r.Legal() {
		t.Fatalf("keyed int witness illegal:\n%s", r)
	}
}
