package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"boundschema/internal/dirtree"
	"boundschema/internal/hquery"
)

func TestWhitePagesIsLegal(t *testing.T) {
	s := whitePagesSchema(t)
	d := whitePagesInstance(t, s)
	report := NewChecker(s).Check(d)
	if !report.Legal() {
		t.Fatalf("Figure 1 instance should be legal:\n%s", report)
	}
	if !NewChecker(s).Legal(d) {
		t.Fatalf("Legal() disagrees with Check()")
	}
}

func expectKinds(t *testing.T, r *Report, want ...ViolationKind) {
	t.Helper()
	got := make(map[ViolationKind]int)
	for _, v := range r.Violations {
		got[v.Kind]++
	}
	for _, k := range want {
		if got[k] == 0 {
			t.Errorf("expected a %v violation, got:\n%s", k, r)
		}
		delete(got, k)
	}
	for k, n := range got {
		t.Errorf("unexpected %d violation(s) of kind %v:\n%s", n, k, r)
	}
}

func TestContentViolations(t *testing.T) {
	type mutate func(t *testing.T, d *dirtree.Directory)
	cases := []struct {
		name string
		mut  mutate
		want []ViolationKind
	}{
		{
			name: "missing required attribute",
			mut: func(t *testing.T, d *dirtree.Directory) {
				entryByRDN(t, d, "uid=laks").SetValues("name")
			},
			want: []ViolationKind{ViolationMissingAttr},
		},
		{
			name: "disallowed attribute",
			mut: func(t *testing.T, d *dirtree.Directory) {
				entryByRDN(t, d, "uid=suciu").AddValue("salary", dirtree.String("lots"))
			},
			want: []ViolationKind{ViolationDisallowedAttr},
		},
		{
			name: "mail needs the online class",
			mut: func(t *testing.T, d *dirtree.Directory) {
				entryByRDN(t, d, "uid=suciu").AddValue("mail", dirtree.String("suciu@research.att.com"))
			},
			want: []ViolationKind{ViolationDisallowedAttr},
		},
		{
			name: "unknown object class",
			mut: func(t *testing.T, d *dirtree.Directory) {
				entryByRDN(t, d, "uid=suciu").AddClass("packetRouter")
			},
			want: []ViolationKind{ViolationUnknownClass},
		},
		{
			name: "no core class",
			mut: func(t *testing.T, d *dirtree.Directory) {
				e := entryByRDN(t, d, "uid=suciu")
				e.SetValues(dirtree.AttrObjectClass, dirtree.String("online"))
				e.AddValue("mail", dirtree.String("x@y"))
				// mail stays allowed through the online class, but name
				// loses its allowing class (person) alongside the class
				// violations.
			},
			want: []ViolationKind{ViolationNoCoreClass, ViolationDisallowedAux, ViolationDisallowedAttr},
		},
		{
			name: "missing superclass breaks inheritance",
			mut: func(t *testing.T, d *dirtree.Directory) {
				entryByRDN(t, d, "uid=suciu").RemoveClass("person")
				// name was allowed through person, so it becomes
				// disallowed as well.
			},
			want: []ViolationKind{ViolationInheritance, ViolationDisallowedAttr},
		},
		{
			name: "incomparable core classes",
			mut: func(t *testing.T, d *dirtree.Directory) {
				// Section 1.2: forbid an orgUnit from also being a
				// facultyMember is aux; the core analogue: orgUnit+person.
				entryByRDN(t, d, "ou=databases").AddClass("person")
			},
			want: []ViolationKind{ViolationIncomparable, ViolationMissingAttr},
		},
		{
			name: "disallowed auxiliary class",
			mut: func(t *testing.T, d *dirtree.Directory) {
				// facultyMember is allowed for researcher, not orgUnit.
				entryByRDN(t, d, "ou=databases").AddClass("facultyMember")
			},
			want: []ViolationKind{ViolationDisallowedAux},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := whitePagesSchema(t)
			d := whitePagesInstance(t, s)
			c.mut(t, d)
			r := NewChecker(s).CheckContent(d)
			expectKinds(t, r, c.want...)
			if NewChecker(s).Legal(d) {
				t.Errorf("Legal() = true on mutated instance")
			}
		})
	}
}

func TestTypingViolations(t *testing.T) {
	s := whitePagesSchema(t)
	s.Registry.Declare("age", dirtree.TypeInt)
	s.Registry.DeclareSingle("ssn", dirtree.TypeString)
	s.Attrs.Allow("person", "age", "ssn")
	d := whitePagesInstance(t, s)
	laks := entryByRDN(t, d, "uid=laks")
	laks.AddValue("age", dirtree.String("forty"))
	laks.AddValue("ssn", dirtree.String("1"))
	laks.AddValue("ssn", dirtree.String("2"))
	r := NewChecker(s).CheckContent(d)
	if got := len(r.ByKind(ViolationTyping)); got != 2 {
		t.Errorf("typing violations = %d, want 2:\n%s", got, r)
	}
}

func TestStructureViolations(t *testing.T) {
	s := whitePagesSchema(t)
	checker := NewChecker(s)

	t.Run("missing required class", func(t *testing.T) {
		d := whitePagesInstance(t, s)
		// Remove every person: orgGroup →de person breaks too.
		for _, rdn := range []string{"uid=laks", "uid=suciu", "uid=armstrong"} {
			if err := d.DeleteLeaf(entryByRDN(t, d, rdn)); err != nil {
				t.Fatal(err)
			}
		}
		r := checker.CheckStructure(d)
		if len(r.ByKind(ViolationMissingClass)) != 1 { // person⇓
			t.Errorf("missing-class violations:\n%s", r)
		}
		if len(r.ByKind(ViolationRequiredRel)) == 0 {
			t.Errorf("expected required-rel violations:\n%s", r)
		}
	})

	t.Run("forbidden child under person", func(t *testing.T) {
		d := whitePagesInstance(t, s)
		laks := entryByRDN(t, d, "uid=laks")
		if _, err := d.AddChild(laks, "cn=widget", "orgUnit", "orgGroup", "top"); err != nil {
			t.Fatal(err)
		}
		r := checker.CheckStructure(d)
		// person ⇥ch top fires; the new orgUnit has no orgGroup parent
		// (laks is a person) and no person descendant.
		if len(r.ByKind(ViolationForbiddenRel)) != 1 {
			t.Errorf("forbidden-rel violations:\n%s", r)
		}
		if len(r.ByKind(ViolationRequiredRel)) != 2 {
			t.Errorf("required-rel violations:\n%s", r)
		}
	})

	t.Run("orgUnit at root misses its orgGroup parent", func(t *testing.T) {
		d := whitePagesInstance(t, s)
		if _, err := d.AddRoot("ou=stray", "orgUnit", "orgGroup", "top"); err != nil {
			t.Fatal(err)
		}
		r := checker.CheckStructure(d)
		// stray violates orgUnit →pa orgGroup and orgGroup →de person.
		if len(r.ByKind(ViolationRequiredRel)) != 2 {
			t.Errorf("required-rel violations:\n%s", r)
		}
	})
}

func TestMaxWitnesses(t *testing.T) {
	s := whitePagesSchema(t)
	d := whitePagesInstance(t, s)
	labs := entryByRDN(t, d, "ou=attLabs")
	for i := 0; i < 10; i++ {
		if _, err := d.AddChild(labs, "ou=empty"+strconv.Itoa(i), "orgUnit", "orgGroup", "top"); err != nil {
			t.Fatal(err)
		}
	}
	c := NewChecker(s)
	c.MaxWitnesses = 3
	r := c.CheckStructure(d)
	if got := len(r.ByKind(ViolationRequiredRel)); got != 3 {
		t.Errorf("witnesses = %d, want 3", got)
	}
	if !r.Truncated {
		t.Errorf("report should be marked truncated")
	}
	full := NewChecker(s).CheckStructure(d)
	if got := len(full.ByKind(ViolationRequiredRel)); got != 10 {
		t.Errorf("full witnesses = %d, want 10", got)
	}
}

// TestFig4Equivalence checks the Figure 4 reduction: for every structure
// element kind and random instances, D ⊨ φ (naive Definition 2.6
// semantics) iff the translated query is empty (non-empty for c⇓). Each
// kind must meet both verdicts during the run, so the equivalence is
// never tested on one side only; the tiny instances drawn first make
// sure of it.
func TestFig4Equivalence(t *testing.T) {
	classes := []string{"a", "b", "c", ClassTop}
	// Verdicts per kind: the required axes in Axis order, ⇥ch, ⇥de, c⇓.
	kinds := [...]string{"→ch", "→de", "→pa", "→an", "⇥ch", "⇥de", "c⇓"}
	var sat, viol [len(kinds)]int
	agree := func(kind int, holds, translated bool) bool {
		if holds {
			sat[kind]++
		} else {
			viol[kind]++
		}
		return holds == translated
	}
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomInstance(rng, int(size%50)+2, classes)
		b := hquery.NewBinding(d)
		for _, src := range classes {
			for _, tgt := range classes {
				for ax := Axis(0); ax < 4; ax++ {
					rel := RequiredRel{Source: src, Axis: ax, Target: tgt}
					if !agree(int(ax), Satisfies(d, rel), hquery.Empty(RequiredRelQuery(rel), b)) {
						t.Logf("mismatch for %s", rel.ElementString())
						return false
					}
				}
				for i, ax := range []Axis{AxisChild, AxisDesc} {
					forb := ForbiddenRel{Upper: src, Axis: ax, Lower: tgt}
					if !agree(4+i, Satisfies(d, forb), hquery.Empty(ForbiddenRelQuery(forb), b)) {
						t.Logf("mismatch for %s", forb.ElementString())
						return false
					}
				}
			}
			rc := RequiredClass{Class: src}
			if !agree(6, Satisfies(d, rc), !hquery.Empty(RequiredClassQuery(src), b)) {
				t.Logf("mismatch for %s", rc.ElementString())
				return false
			}
		}
		return true
	}
	for seed := int64(0); seed < 8; seed++ {
		if !f(seed, uint8(seed%3)) {
			t.Fatalf("tiny instance %d: mismatch", seed)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	for k := range sat {
		if sat[k] == 0 || viol[k] == 0 {
			t.Errorf("%s: %d satisfied and %d violated verdicts; the draw must reach both", kinds[k], sat[k], viol[k])
		}
	}
}

// randomInstance grows a random forest over the given classes, with each
// entry belonging to top plus a random subset.
func randomInstance(rng *rand.Rand, n int, classes []string) *dirtree.Directory {
	d := dirtree.New(nil)
	var all []*dirtree.Entry
	for i := 0; i < n; i++ {
		cs := []string{ClassTop}
		for _, c := range classes {
			if c != ClassTop && rng.Intn(3) == 0 {
				cs = append(cs, c)
			}
		}
		var e *dirtree.Entry
		if len(all) == 0 || rng.Intn(7) == 0 {
			e, _ = d.AddRoot("r="+strconv.Itoa(i), cs...)
		} else {
			e, _ = d.AddChild(all[rng.Intn(len(all))], "n="+strconv.Itoa(i), cs...)
		}
		all = append(all, e)
	}
	return d
}

// TestNaiveMatchesQueryChecker differentially tests the quadratic
// baseline against the query-based structure checker on random schemas
// and instances: identical violation multisets per (kind, element).
func TestNaiveMatchesQueryChecker(t *testing.T) {
	classes := []string{"a", "b", "c", ClassTop}
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSchema()
		for _, c := range classes {
			if c != ClassTop {
				if err := s.Classes.AddCore(c, ClassTop); err != nil {
					return false
				}
			}
		}
		for i := 0; i < 4; i++ {
			src := classes[rng.Intn(len(classes))]
			tgt := classes[rng.Intn(len(classes))]
			switch rng.Intn(3) {
			case 0:
				s.Structure.RequireRel(src, Axis(rng.Intn(4)), tgt)
			case 1:
				_ = s.Structure.ForbidRel(src, Axis(rng.Intn(2)), tgt)
			default:
				s.Structure.RequireClass(src)
			}
		}
		d := randomInstance(rng, int(size%40)+2, classes)
		fast := NewChecker(s).CheckStructure(d)
		slow := NaiveStructureCheck(s, d)
		return violationKey(fast) == violationKey(slow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func violationKey(r *Report) string {
	keys := make([]string, 0, len(r.Violations))
	for _, v := range r.Violations {
		k := v.Kind.String()
		if v.Entry != nil {
			k += "@" + v.Entry.DN()
		}
		if v.Element != nil {
			k += "[" + v.Element.ElementString() + "]"
		}
		keys = append(keys, k)
	}
	sortStrings(keys)
	out := ""
	for _, k := range keys {
		out += k + ";"
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestCheckerSchemaAccessors exercises small plumbing.
func TestCheckerSchemaAccessors(t *testing.T) {
	s := whitePagesSchema(t)
	c := NewChecker(s)
	if c.Schema() != s {
		t.Errorf("Schema accessor broken")
	}
	d := whitePagesInstance(t, s)
	if r := c.CheckEntry(entryByRDN(t, d, "uid=laks")); !r.Legal() {
		t.Errorf("laks should be content-legal: %s", r)
	}
	if !c.EntryLegal(entryByRDN(t, d, "uid=suciu")) {
		t.Errorf("suciu should be content-legal")
	}
}

func TestReportPlumbing(t *testing.T) {
	var r Report
	if !r.Legal() {
		t.Errorf("empty report should be legal")
	}
	if (&Report{}).String() != "legal" {
		t.Errorf("legal report rendering")
	}
	r.Add(Violation{Kind: ViolationMissingClass, Element: RequiredClass{Class: "x"}, Detail: "d"})
	other := &Report{Truncated: true}
	other.Add(Violation{Kind: ViolationForbiddenRel})
	r.Merge(other)
	if len(r.Violations) != 2 || !r.Truncated {
		t.Errorf("merge wrong: %+v", r)
	}
	if r.Legal() {
		t.Errorf("non-empty report should be illegal")
	}
	if s := r.String(); s == "" || s == "legal" {
		t.Errorf("report rendering = %q", s)
	}
	if ViolationMissingClass.Content() || !ViolationDisallowedAux.Content() {
		t.Errorf("Content() classification wrong")
	}
}

// TestMemoCacheHoldsLegalSetsOnly pins the single-entry cache's bound:
// entries whose class sets break a class-schema condition are decided
// afresh and never cached, so client-chosen class names cannot grow it.
func TestMemoCacheHoldsLegalSetsOnly(t *testing.T) {
	s := whitePagesSchema(t)
	d := whitePagesInstance(t, s)
	c := NewChecker(s)
	laks := entryByRDN(t, d, "uid=laks")
	for i := 0; i < 100; i++ {
		e, err := d.AddChild(laks.Parent(), fmt.Sprintf("uid=novel%d", i), "person", "top", fmt.Sprintf("novel%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if c.EntryLegal(e) {
			t.Fatalf("%s with an undeclared class is content-legal", e.DN())
		}
	}
	if !c.EntryLegal(laks) {
		t.Fatal("laks should be content-legal")
	}
	if n := len(c.cache.memos); n != 1 {
		t.Fatalf("cache holds %d memos after one legal set, want 1", n)
	}
}

// TestMemoCacheConcurrent runs the single-entry path from several
// goroutines on a cold checker, so the race detector sees the cache
// filled and read at once.
func TestMemoCacheConcurrent(t *testing.T) {
	s := whitePagesSchema(t)
	d := whitePagesInstance(t, s)
	d.EnsureEncoded()
	c := NewChecker(s)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, e := range d.Entries() {
				if !c.EntryLegal(e) {
					t.Errorf("%s should be content-legal", e.DN())
				}
			}
		}()
	}
	wg.Wait()
}
