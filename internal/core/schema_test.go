package core

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"boundschema/internal/dirtree"
)

func TestAttributeSchema(t *testing.T) {
	a := newAttributeSchema()
	a.Require("person", "name", "uid")
	a.Allow("person", "mail")
	if got := a.Required("person"); !reflect.DeepEqual(got, []string{"name", "uid"}) {
		t.Errorf("Required = %v", got)
	}
	if got := a.Allowed("person"); !reflect.DeepEqual(got, []string{"mail", "name", "uid"}) {
		t.Errorf("Allowed = %v (required must be allowed)", got)
	}
	if !a.IsRequired("person", "name") || a.IsRequired("person", "mail") {
		t.Errorf("IsRequired wrong")
	}
	if !a.IsAllowed("person", "mail") || a.IsAllowed("orgUnit", "mail") {
		t.Errorf("IsAllowed wrong")
	}
	if got := a.Attrs(); !reflect.DeepEqual(got, []string{"mail", "name", "uid"}) {
		t.Errorf("Attrs = %v", got)
	}
	if a.NumAllowed("person") != 3 {
		t.Errorf("NumAllowed = %d", a.NumAllowed("person"))
	}
	if err := a.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	c := a.Clone()
	c.Require("person", "extra")
	if a.IsRequired("person", "extra") {
		t.Errorf("Clone not independent")
	}
}

func TestClassSchemaHierarchy(t *testing.T) {
	s := whitePagesSchema(t)
	cs := s.Classes

	if !cs.IsCore("person") || !cs.IsCore(ClassTop) || cs.IsCore("online") {
		t.Errorf("IsCore wrong")
	}
	if !cs.IsAux("online") || cs.IsAux("person") {
		t.Errorf("IsAux wrong")
	}
	if got := cs.Superclasses("researcher"); !reflect.DeepEqual(got, []string{"researcher", "person", "top"}) {
		t.Errorf("Superclasses = %v", got)
	}
	if !cs.Subsumes("researcher", "person") || !cs.Subsumes("researcher", "researcher") {
		t.Errorf("Subsumes wrong")
	}
	if cs.Subsumes("person", "researcher") {
		t.Errorf("Subsumes must be directional")
	}
	// The paper's example: organization ⇒ orgGroup holds, and we may
	// conclude organization ⊗ person.
	if !cs.Subsumes("organization", "orgGroup") {
		t.Errorf("organization should subsume to orgGroup")
	}
	if !cs.Disjoint("organization", "person") {
		t.Errorf("organization and person should be disjoint")
	}
	if cs.Disjoint("researcher", "person") || cs.Disjoint("person", "online") {
		t.Errorf("Disjoint over-reports")
	}
	if cs.Depth() != 2 {
		t.Errorf("Depth = %d, want 2", cs.Depth())
	}
	if cs.DepthOf("researcher") != 2 || cs.DepthOf(ClassTop) != 0 || cs.DepthOf("nope") != -1 {
		t.Errorf("DepthOf wrong")
	}
	if !cs.AuxAllowed("researcher", "facultyMember") || cs.AuxAllowed("staffMember", "facultyMember") {
		t.Errorf("AuxAllowed wrong")
	}
	if got := cs.AuxesOf("staffMember"); !reflect.DeepEqual(got, []string{"consultant", "manager", "secretary"}) {
		t.Errorf("AuxesOf = %v", got)
	}
	if cs.MaxAux() != 3 {
		t.Errorf("MaxAux = %d", cs.MaxAux())
	}
	if got := cs.Subclasses("person"); !reflect.DeepEqual(got, []string{"researcher", "staffMember"}) {
		t.Errorf("Subclasses = %v", got)
	}
}

func TestClassSchemaErrors(t *testing.T) {
	cs := newClassSchema()
	if err := cs.AddCore("a", ClassTop); err != nil {
		t.Fatal(err)
	}
	if err := cs.AddCore("a", ClassTop); err == nil {
		t.Error("duplicate core accepted")
	}
	if err := cs.AddCore(ClassTop, ClassTop); err == nil {
		t.Error("redeclaring top accepted")
	}
	if err := cs.AddCore("b", "missing"); err == nil {
		t.Error("unknown superclass accepted")
	}
	if err := cs.AddCore(classNone, ClassTop); err == nil {
		t.Error("reserved class name accepted")
	}
	if err := cs.AddAux("a"); err == nil {
		t.Error("aux colliding with core accepted")
	}
	if err := cs.AddAux("x"); err != nil {
		t.Fatal(err)
	}
	if err := cs.AddAux("x"); err == nil {
		t.Error("duplicate aux accepted")
	}
	if err := cs.AddCore("x", ClassTop); err == nil {
		t.Error("core colliding with aux accepted")
	}
	if err := cs.AllowAux("missing", "x"); err == nil {
		t.Error("AllowAux with unknown core accepted")
	}
	if err := cs.AllowAux("a", "missing"); err == nil {
		t.Error("AllowAux with unknown aux accepted")
	}
}

func TestClassSchemaClone(t *testing.T) {
	s := whitePagesSchema(t)
	c := s.Classes.Clone()
	if !reflect.DeepEqual(c.CoreClasses(), s.Classes.CoreClasses()) {
		t.Errorf("clone core classes differ")
	}
	if !reflect.DeepEqual(c.AuxClasses(), s.Classes.AuxClasses()) {
		t.Errorf("clone aux classes differ")
	}
	if !c.Subsumes("researcher", "person") {
		t.Errorf("clone lost hierarchy")
	}
	if err := c.AddCore("newClass", "person"); err != nil {
		t.Fatal(err)
	}
	if s.Classes.IsCore("newClass") {
		t.Errorf("clone not independent")
	}
}

func TestStructureSchema(t *testing.T) {
	ss := newStructureSchema()
	ss.RequireClass("orgUnit")
	ss.RequireRel("orgGroup", AxisDesc, "person")
	ss.RequireRel("orgGroup", AxisDesc, "person") // duplicate collapses
	if err := ss.ForbidRel("person", AxisChild, ClassTop); err != nil {
		t.Fatal(err)
	}
	if err := ss.ForbidRel("person", AxisParent, ClassTop); err == nil {
		t.Error("forbidden relationship with upward axis accepted")
	}
	if ss.Size() != 3 {
		t.Errorf("Size = %d, want 3", ss.Size())
	}
	if !ss.IsRequiredClass("orgUnit") || ss.IsRequiredClass("person") {
		t.Errorf("IsRequiredClass wrong")
	}
	if got := ss.Classes(); !reflect.DeepEqual(got, []string{"orgGroup", "orgUnit", "person", "top"}) {
		t.Errorf("Classes = %v", got)
	}
	c := ss.Clone()
	c.RequireClass("extra")
	if ss.IsRequiredClass("extra") {
		t.Errorf("clone not independent")
	}
}

func TestAxis(t *testing.T) {
	for _, a := range []Axis{AxisChild, AxisDesc, AxisParent, AxisAnc} {
		back, err := ParseAxis(a.String())
		if err != nil || back != a {
			t.Errorf("ParseAxis(%q) = %v, %v", a.String(), back, err)
		}
	}
	if _, err := ParseAxis("sibling"); err == nil {
		t.Error("unknown axis accepted")
	}
	if !AxisChild.Downward() || !AxisDesc.Downward() || AxisParent.Downward() || AxisAnc.Downward() {
		t.Errorf("Downward wrong")
	}
	if AxisChild.Transitive() || !AxisDesc.Transitive() || AxisParent.Transitive() || !AxisAnc.Transitive() {
		t.Errorf("Transitive wrong")
	}
}

func TestElementStrings(t *testing.T) {
	cases := []struct {
		el   Element
		want string
	}{
		{RequiredClass{Class: "orgUnit"}, "orgUnit⇓"},
		{RequiredRel{Source: "orgGroup", Axis: AxisDesc, Target: "person"}, "orgGroup →de person"},
		{RequiredRel{Source: "orgUnit", Axis: AxisParent, Target: "orgGroup"}, "orgUnit →pa orgGroup"},
		{ForbiddenRel{Upper: "person", Axis: AxisChild, Lower: "top"}, "person ⇥ch top"},
		{Subclass{Sub: "researcher", Super: "person"}, "researcher ⇒ person"},
		{Disjoint{A: "person", B: "orgUnit"}, "person ⊗ orgUnit"},
	}
	for _, c := range cases {
		if got := c.el.ElementString(); got != c.want {
			t.Errorf("ElementString = %q, want %q", got, c.want)
		}
	}
}

func TestSchemaValidate(t *testing.T) {
	s := whitePagesSchema(t)
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}

	bad := s.Clone()
	bad.Attrs.Allow("ghostClass", "attr")
	if err := bad.Validate(); err == nil {
		t.Error("attribute schema with undeclared class accepted")
	}

	bad2 := s.Clone()
	bad2.Structure.RequireClass("online") // aux class in structure schema
	if err := bad2.Validate(); err == nil {
		t.Error("structure schema over auxiliary class accepted")
	}

	bad3 := s.Clone()
	bad3.Structure.RequireRel("nowhere", AxisChild, "person")
	if err := bad3.Validate(); err == nil {
		t.Error("structure schema over undeclared class accepted")
	}
}

func TestSchemaElements(t *testing.T) {
	s := whitePagesSchema(t)
	els := s.Elements()
	want := map[string]bool{
		"organization⇓":           true,
		"orgUnit⇓":                true,
		"person⇓":                 true,
		"orgGroup →de person":     true,
		"orgUnit →pa orgGroup":    true,
		"person →an organization": true,
		"person ⇥ch top":          true,
		"researcher ⇒ person":     true,
		"organization ⇒ orgGroup": true,
		"orgUnit ⊗ organization":  true,
		"orgGroup ⊗ person":       true,
	}
	got := make(map[string]bool)
	for _, el := range els {
		got[el.ElementString()] = true
	}
	for w := range want {
		if !got[w] {
			t.Errorf("Elements missing %q", w)
		}
	}
	// No self-disjointness, no disjointness among comparables.
	for _, el := range els {
		if d, ok := el.(Disjoint); ok {
			if d.A == d.B || s.Classes.Comparable(d.A, d.B) {
				t.Errorf("bad disjoint element %v", d)
			}
		}
	}
}

func TestSatisfiesOnWhitePages(t *testing.T) {
	s := whitePagesSchema(t)
	d := whitePagesInstance(t, s)
	for _, el := range s.Elements() {
		if !satisfies(d, el) {
			t.Errorf("legal instance should satisfy %s", el.ElementString())
		}
	}
	// Elements that must NOT hold.
	if satisfies(d, RequiredClass{Class: "consultant"}) {
		t.Errorf("no consultant exists")
	}
	if satisfies(d, RequiredRel{Source: "person", Axis: AxisChild, Target: "person"}) {
		t.Errorf("persons have no person children")
	}
	if satisfies(d, ForbiddenRel{Upper: "organization", Axis: AxisDesc, Lower: "person"}) {
		t.Errorf("organization does have person descendants")
	}
	if satisfies(d, Disjoint{A: "person", B: "online"}) {
		t.Errorf("laks is both person and online")
	}
	if satisfies(d, Subclass{Sub: "person", Super: "researcher"}) {
		t.Errorf("armstrong is person but not researcher")
	}
	if satisfies(d, RequiredClass{Class: classNone}) {
		t.Errorf("∅⇓ must never be satisfied")
	}
	if satisfies(d, RequiredRel{Source: "person", Axis: AxisAnc, Target: classNone}) {
		t.Errorf("a required relationship into ∅ is unsatisfiable while persons exist")
	}
}

// randomHierarchy grows a random core class tree for the order-axiom
// property tests.
func randomHierarchy(rng *rand.Rand, n int) (*ClassSchema, []string) {
	cs := newClassSchema()
	names := []string{ClassTop}
	for i := 0; i < n; i++ {
		name := "h" + strconv.Itoa(i)
		super := names[rng.Intn(len(names))]
		if err := cs.AddCore(name, super); err != nil {
			panic(err)
		}
		names = append(names, name)
	}
	return cs, names
}

// Property: Subsumes is a partial order (reflexive, antisymmetric,
// transitive) with top as the greatest element, and Disjoint is exactly
// the complement of Comparable on distinct core classes.
func TestQuickSubsumesPartialOrder(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cs, names := randomHierarchy(rng, int(size%12)+2)
		for i := 0; i < 60; i++ {
			a := names[rng.Intn(len(names))]
			b := names[rng.Intn(len(names))]
			c := names[rng.Intn(len(names))]
			if !cs.Subsumes(a, a) {
				return false // reflexive
			}
			if cs.Subsumes(a, b) && cs.Subsumes(b, a) && a != b {
				return false // antisymmetric
			}
			if cs.Subsumes(a, b) && cs.Subsumes(b, c) && !cs.Subsumes(a, c) {
				return false // transitive
			}
			if !cs.Subsumes(a, ClassTop) {
				return false // top is greatest
			}
			if cs.Disjoint(a, b) == cs.Comparable(a, b) && a != b {
				return false // disjoint ⟺ incomparable
			}
			if cs.Disjoint(a, b) != cs.Disjoint(b, a) {
				return false // symmetric
			}
			if cs.Disjoint(a, a) {
				return false // irreflexive
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: DepthOf is consistent with the superclass chain length, and
// Superclasses always ends at top.
func TestQuickDepthMatchesChain(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cs, names := randomHierarchy(rng, int(size%12)+2)
		for _, c := range names {
			chain := cs.Superclasses(c)
			if len(chain) == 0 || chain[0] != c || chain[len(chain)-1] != ClassTop {
				return false
			}
			if cs.DepthOf(c) != len(chain)-1 {
				return false
			}
			// Every chain member subsumes from c.
			for _, sup := range chain {
				if !cs.Subsumes(c, sup) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: an entry whose classes are exactly a superclass chain always
// passes the class-schema part of the content check, and any strict
// subset that omits a chain member fails it.
func TestQuickChainEntriesAreContentLegal(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cs, names := randomHierarchy(rng, int(size%10)+2)
		s := NewSchema()
		s.Classes = cs
		checker := NewChecker(s)
		d := dirtree.New(nil)
		c := names[rng.Intn(len(names))]
		chain := cs.Superclasses(c)
		e, err := d.AddRoot("x=full", chain...)
		if err != nil {
			return false
		}
		if !checker.EntryLegal(e) {
			return false
		}
		if len(chain) > 1 {
			// Drop one non-leaf chain member: inheritance violation.
			drop := chain[1+rng.Intn(len(chain)-1)]
			var partial []string
			for _, cc := range chain {
				if cc != drop {
					partial = append(partial, cc)
				}
			}
			e2, err := d.AddRoot("x=partial", partial...)
			if err != nil {
				return false
			}
			if checker.EntryLegal(e2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
