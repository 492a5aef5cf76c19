package dirtree

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func mustAdd(t *testing.T, d *Directory, parent *Entry, rdn string, classes ...string) *Entry {
	t.Helper()
	var e *Entry
	var err error
	if parent == nil {
		e, err = d.AddRoot(rdn, classes...)
	} else {
		e, err = d.AddChild(parent, rdn, classes...)
	}
	if err != nil {
		t.Fatalf("add %s: %v", rdn, err)
	}
	return e
}

// buildWhitePages constructs the paper's Figure 1 instance.
func buildWhitePages(t *testing.T) (*Directory, map[string]*Entry) {
	t.Helper()
	reg := NewRegistry()
	reg.Declare("name", TypeString)
	reg.Declare("mail", TypeString)
	reg.Declare("uri", TypeString)
	reg.Declare("location", TypeString)
	d := New(reg)
	att := mustAdd(t, d, nil, "o=att", "organization", "orgGroup", "online", "top")
	att.AddValue("uri", String("http://www.att.com/"))
	labs := mustAdd(t, d, att, "ou=attLabs", "orgUnit", "orgGroup", "top")
	labs.AddValue("location", String("FP"))
	armstrong := mustAdd(t, d, labs, "uid=armstrong", "staffMember", "person", "top")
	armstrong.AddValue("name", String("m armstrong"))
	db := mustAdd(t, d, labs, "ou=databases", "orgUnit", "orgGroup", "top")
	laks := mustAdd(t, d, db, "uid=laks", "researcher", "facultyMember", "person", "online", "top")
	laks.AddValue("name", String("laks lakshmanan"))
	laks.AddValue("mail", String("laks@cs.concordia.ca"))
	laks.AddValue("mail", String("laks@cse.iitb.ernet.in"))
	suciu := mustAdd(t, d, db, "uid=suciu", "researcher", "person", "top")
	suciu.AddValue("name", String("dan suciu"))
	return d, map[string]*Entry{
		"att": att, "labs": labs, "armstrong": armstrong,
		"db": db, "laks": laks, "suciu": suciu,
	}
}

func TestDNConstruction(t *testing.T) {
	d, es := buildWhitePages(t)
	want := "uid=laks,ou=databases,ou=attLabs,o=att"
	if got := es["laks"].DN(); got != want {
		t.Errorf("DN = %q, want %q", got, want)
	}
	if d.ByDN(want) != es["laks"] {
		t.Errorf("ByDN lookup failed")
	}
	if d.Len() != 6 {
		t.Errorf("Len = %d, want 6", d.Len())
	}
}

var dnSink string

// TestEntryDNAllocs: a root's DN is its RDN, and any other DN is built
// in one allocation however deep the entry sits.
func TestEntryDNAllocs(t *testing.T) {
	_, es := buildWhitePages(t)
	if n := testing.AllocsPerRun(100, func() { dnSink = es["att"].DN() }); n != 0 {
		t.Errorf("root DN: %.0f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { dnSink = es["laks"].DN() }); n != 1 {
		t.Errorf("depth-3 DN: %.0f allocations, want 1", n)
	}
}

func TestObjectClassAttributeSync(t *testing.T) {
	// Condition 3(b) of Definition 2.1: objectClass values are exactly
	// the class set, in both directions.
	d, es := buildWhitePages(t)
	_ = d
	laks := es["laks"]
	got := make([]string, 0)
	for _, v := range laks.Attr(AttrObjectClass) {
		got = append(got, v.String())
	}
	want := []string{"facultyMember", "online", "person", "researcher", "top"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("objectClass values = %v, want %v", got, want)
	}
	laks.AddValue(AttrObjectClass, String("staffMember"))
	if !laks.HasClass("staffMember") {
		t.Errorf("AddValue(objectClass) did not update class set")
	}
	laks.RemoveValue(AttrObjectClass, String("staffMember"))
	if laks.HasClass("staffMember") {
		t.Errorf("RemoveValue(objectClass) did not update class set")
	}
	laks.RemoveClass("online")
	for _, v := range laks.Attr(AttrObjectClass) {
		if v.String() == "online" {
			t.Errorf("RemoveClass did not update objectClass attribute")
		}
	}
}

func TestAttrValueSetSemantics(t *testing.T) {
	d := New(nil)
	e, _ := d.AddRoot("o=x", "top")
	e.AddValue("mail", String("a@b"))
	e.AddValue("mail", String("a@b")) // duplicate ignored
	e.AddValue("mail", String("c@d"))
	if n := len(e.Attr("mail")); n != 2 {
		t.Errorf("mail has %d values, want 2", n)
	}
	e.RemoveValue("mail", String("a@b"))
	if n := len(e.Attr("mail")); n != 1 {
		t.Errorf("after removal mail has %d values, want 1", n)
	}
	e.SetValues("mail")
	if e.HasAttr("mail") {
		t.Errorf("SetValues() should remove the attribute")
	}
}

func TestDuplicateDNRejected(t *testing.T) {
	d := New(nil)
	mustAdd(t, d, nil, "o=x", "top")
	if _, err := d.AddRoot("o=x", "top"); err == nil {
		t.Fatalf("duplicate root DN accepted")
	}
	p := d.ByDN("o=x")
	mustAdd(t, d, p, "ou=y", "top")
	if _, err := d.AddChild(p, "ou=y", "top"); err == nil {
		t.Fatalf("duplicate child DN accepted")
	}
}

func TestInvalidRDN(t *testing.T) {
	d := New(nil)
	if _, err := d.AddRoot("", "top"); err == nil {
		t.Error("empty RDN accepted")
	}
	if _, err := d.AddRoot("a=b,c=d", "top"); err == nil {
		t.Error("RDN with comma accepted")
	}
}

func TestDeleteLeafOnly(t *testing.T) {
	d, es := buildWhitePages(t)
	if err := d.DeleteLeaf(es["db"]); err == nil {
		t.Fatalf("deleted non-leaf entry")
	}
	if err := d.DeleteLeaf(es["suciu"]); err != nil {
		t.Fatalf("DeleteLeaf(suciu): %v", err)
	}
	if d.ByDN("uid=suciu,ou=databases,ou=attLabs,o=att") != nil {
		t.Errorf("deleted entry still resolvable by DN")
	}
	if d.Len() != 5 {
		t.Errorf("Len = %d, want 5", d.Len())
	}
}

func TestDeleteSubtree(t *testing.T) {
	d, es := buildWhitePages(t)
	n, err := d.DeleteSubtree(es["db"])
	if err != nil {
		t.Fatalf("DeleteSubtree: %v", err)
	}
	if n != 3 {
		t.Errorf("removed %d entries, want 3", n)
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d, want 3", d.Len())
	}
	if d.ByDN("uid=laks,ou=databases,ou=attLabs,o=att") != nil {
		t.Errorf("descendant of deleted subtree still resolvable")
	}
}

func TestIntervalEncoding(t *testing.T) {
	d, es := buildWhitePages(t)
	d.EnsureEncoded()
	att, labs, laks, armstrong := es["att"], es["labs"], es["laks"], es["armstrong"]
	if !att.IsAncestorOf(laks) {
		t.Errorf("att should be ancestor of laks")
	}
	if !labs.IsAncestorOf(laks) {
		t.Errorf("labs should be ancestor of laks")
	}
	if laks.IsAncestorOf(att) {
		t.Errorf("laks should not be ancestor of att")
	}
	if armstrong.IsAncestorOf(laks) || laks.IsAncestorOf(armstrong) {
		t.Errorf("siblings' subtrees must be disjoint")
	}
	if att.IsAncestorOf(att) {
		t.Errorf("IsAncestorOf must be irreflexive")
	}
	if att.Depth() != 0 || labs.Depth() != 1 || laks.Depth() != 3 {
		t.Errorf("depths = %d,%d,%d, want 0,1,3", att.Depth(), labs.Depth(), laks.Depth())
	}
}

func TestEncodingInvalidatedByMutation(t *testing.T) {
	d, es := buildWhitePages(t)
	d.EnsureEncoded()
	before := len(d.ClassEntries("person"))
	mustAdd(t, d, es["db"], "uid=new", "person", "top")
	after := len(d.ClassEntries("person"))
	if after != before+1 {
		t.Errorf("class index not refreshed: %d -> %d", before, after)
	}
}

func TestClassIndexSortedByPre(t *testing.T) {
	d, _ := buildWhitePages(t)
	for _, c := range d.ClassNames() {
		es := d.ClassEntries(c)
		for i := 1; i < len(es); i++ {
			if es[i-1].Pre() >= es[i].Pre() {
				t.Errorf("class %s posting list not strictly pre-sorted", c)
			}
		}
	}
}

func TestViews(t *testing.T) {
	d, es := buildWhitePages(t)
	d.EnsureEncoded()
	sub := d.SubtreeView(es["db"])
	rest := d.ExceptSubtreeView(es["db"])
	if sub.Len() != 3 || rest.Len() != 3 {
		t.Fatalf("view lens = %d,%d, want 3,3", sub.Len(), rest.Len())
	}
	if !sub.Contains(es["laks"]) || sub.Contains(es["labs"]) {
		t.Errorf("subtree view membership wrong")
	}
	if rest.Contains(es["laks"]) || !rest.Contains(es["labs"]) {
		t.Errorf("except-subtree view membership wrong")
	}
	if !sub.Contains(es["db"]) {
		t.Errorf("subtree view must contain its root")
	}
	if got := len(sub.ClassEntries("person")); got != 2 {
		t.Errorf("subtree persons = %d, want 2", got)
	}
	if got := len(rest.ClassEntries("person")); got != 1 {
		t.Errorf("rest persons = %d, want 1", got)
	}
	if d.EmptyView().Len() != 0 || len(d.EmptyView().ClassEntries("person")) != 0 {
		t.Errorf("empty view not empty")
	}
	if d.All().Len() != 6 {
		t.Errorf("all view len = %d, want 6", d.All().Len())
	}
}

func TestViewEntriesArePreSorted(t *testing.T) {
	d, es := buildWhitePages(t)
	for _, v := range []View{d.All(), d.SubtreeView(es["labs"]), d.ExceptSubtreeView(es["db"])} {
		ents := v.Entries()
		for i := 1; i < len(ents); i++ {
			if ents[i-1].Pre() >= ents[i].Pre() {
				t.Errorf("view %v entries not pre-sorted", v)
			}
		}
	}
}

func TestClone(t *testing.T) {
	d, _ := buildWhitePages(t)
	c := d.Clone()
	if c.Len() != d.Len() {
		t.Fatalf("clone len = %d, want %d", c.Len(), d.Len())
	}
	if c.String() != d.String() {
		t.Errorf("clone outline differs:\n%s\nvs\n%s", c.String(), d.String())
	}
	laks := c.ByDN("uid=laks,ou=databases,ou=attLabs,o=att")
	if laks == nil {
		t.Fatalf("clone lost laks")
	}
	if n := len(laks.Attr("mail")); n != 2 {
		t.Errorf("clone lost attribute values: mail has %d", n)
	}
	// Mutating the clone must not affect the original.
	laks.AddValue("mail", String("x@y"))
	orig := d.ByDN("uid=laks,ou=databases,ou=attLabs,o=att")
	if n := len(orig.Attr("mail")); n != 2 {
		t.Errorf("clone mutation leaked into original")
	}
}

func TestGraftSubtree(t *testing.T) {
	d, es := buildWhitePages(t)
	other := New(d.Registry())
	grp, _ := other.AddRoot("ou=networking", "orgUnit", "orgGroup", "top")
	p, _ := other.AddChild(grp, "uid=pat", "person", "top")
	p.AddValue("name", String("pat"))
	root, err := d.GraftSubtree(es["labs"], grp.dir.ByDN("ou=networking"))
	if err != nil {
		t.Fatalf("GraftSubtree: %v", err)
	}
	if root.Parent() != es["labs"] {
		t.Errorf("graft root parent wrong")
	}
	got := d.ByDN("uid=pat,ou=networking,ou=attLabs,o=att")
	if got == nil {
		t.Fatalf("grafted child not resolvable")
	}
	if got.Attr("name")[0].String() != "pat" {
		t.Errorf("grafted child lost attributes")
	}
	if d.Len() != 8 {
		t.Errorf("Len = %d, want 8", d.Len())
	}
}

func TestValueTypesAndParsing(t *testing.T) {
	cases := []struct {
		v    Value
		text string
	}{
		{String("hello"), "hello"},
		{Int(-42), "-42"},
		{Bool(true), "TRUE"},
		{Bool(false), "FALSE"},
		{DN("o=att"), "o=att"},
		{Tel("+1 973 360 8000"), "+1 973 360 8000"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.text {
			t.Errorf("%v.String() = %q, want %q", c.v, got, c.text)
		}
		back, err := ParseValue(c.v.Type(), c.text)
		if err != nil {
			t.Errorf("ParseValue(%v, %q): %v", c.v.Type(), c.text, err)
			continue
		}
		if !back.Equal(c.v) {
			t.Errorf("round trip %v -> %q -> %v", c.v, c.text, back)
		}
	}
	if _, err := ParseValue(TypeInt, "not-a-number"); err == nil {
		t.Errorf("ParseValue accepted bad integer")
	}
	if _, err := ParseValue(TypeBool, "maybe"); err == nil {
		t.Errorf("ParseValue accepted bad boolean")
	}
}

func TestValueCompareTotalOrder(t *testing.T) {
	vals := []Value{String("a"), String("b"), Int(1), Int(2), Bool(false), Bool(true), DN("o=a")}
	sorted := append([]Value(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].Compare(sorted[i]) > 0 {
			t.Fatalf("sort not consistent with Compare")
		}
	}
	if String("a").Compare(String("a")) != 0 {
		t.Errorf("equal strings compare nonzero")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Declare("age", TypeInt)
	r.DeclareSingle("ssn", TypeString)
	if r.Type("age") != TypeInt {
		t.Errorf("age type wrong")
	}
	if r.Type("undeclared") != TypeString {
		t.Errorf("undeclared attrs must default to string")
	}
	if !r.SingleValued("ssn") || r.SingleValued("age") {
		t.Errorf("single-valued flags wrong")
	}
	if err := r.CheckValue("age", Int(30)); err != nil {
		t.Errorf("CheckValue(age, 30): %v", err)
	}
	if err := r.CheckValue("age", String("thirty")); err == nil {
		t.Errorf("CheckValue accepted mistyped value")
	}
	if !r.Declared(AttrObjectClass) {
		t.Errorf("objectClass must be pre-declared")
	}
}

func TestTypeParse(t *testing.T) {
	for _, tt := range []Type{TypeString, TypeInt, TypeBool, TypeDN, TypeTel} {
		got, err := ParseType(tt.String())
		if err != nil || got != tt {
			t.Errorf("ParseType(%q) = %v, %v", tt.String(), got, err)
		}
	}
	if _, err := ParseType("float"); err == nil {
		t.Errorf("ParseType accepted unknown type")
	}
}

// buildRandom grows a random forest and returns it with its entries.
func buildRandom(rng *rand.Rand, n int) *Directory {
	d := New(nil)
	var all []*Entry
	classes := []string{"a", "b", "c", "d", "top"}
	for i := 0; i < n; i++ {
		cs := []string{"top", classes[rng.Intn(4)]}
		var e *Entry
		if len(all) == 0 || rng.Intn(8) == 0 {
			e, _ = d.AddRoot(rdnN("r", i), cs...)
		} else {
			e, _ = d.AddChild(all[rng.Intn(len(all))], rdnN("n", i), cs...)
		}
		all = append(all, e)
	}
	return d
}

func rdnN(prefix string, i int) string {
	return prefix + "=" + strings.Repeat("x", i%3) + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// Property: the interval encoding agrees with the parent-pointer
// definition of ancestry on random forests.
func TestQuickIntervalEncodingMatchesParentChain(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size%64) + 2
		d := buildRandom(rng, n)
		ents := d.Entries()
		for i := 0; i < 40; i++ {
			a := ents[rng.Intn(len(ents))]
			b := ents[rng.Intn(len(ents))]
			chain := false
			for p := b.Parent(); p != nil; p = p.Parent() {
				if p == a {
					chain = true
					break
				}
			}
			if a.IsAncestorOf(b) != chain {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: for any entry, Subtree + ExceptSubtree views partition the
// directory, and their class posting lists partition the directory's.
func TestQuickViewsPartition(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size%64) + 2
		d := buildRandom(rng, n)
		ents := d.Entries()
		root := ents[rng.Intn(len(ents))]
		sub := d.SubtreeView(root)
		rest := d.ExceptSubtreeView(root)
		if sub.Len()+rest.Len() != d.Len() {
			return false
		}
		for _, e := range ents {
			if sub.Contains(e) == rest.Contains(e) {
				return false
			}
		}
		for _, c := range d.ClassNames() {
			if len(sub.ClassEntries(c))+len(rest.ClassEntries(c)) != len(d.ClassEntries(c)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Clone preserves the outline and DN set.
func TestQuickClonePreservesShape(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := buildRandom(rng, int(size%48)+2)
		c := d.Clone()
		if c.Len() != d.Len() || c.String() != d.String() {
			return false
		}
		for _, e := range d.Entries() {
			if c.ByDN(e.DN()) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDeleteSubtreeRoot(t *testing.T) {
	d, es := buildWhitePages(t)
	n, err := d.DeleteSubtree(es["att"])
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 || d.Len() != 0 {
		t.Errorf("removed %d, remaining %d", n, d.Len())
	}
	if len(d.Roots()) != 0 {
		t.Errorf("roots remain after deleting the only tree")
	}
}

func TestForeignEntryRejected(t *testing.T) {
	d1, es1 := buildWhitePages(t)
	d2 := New(d1.Registry())
	if err := d2.DeleteLeaf(es1["suciu"]); err == nil {
		t.Errorf("deleting a foreign entry accepted")
	}
	if _, err := d2.DeleteSubtree(es1["db"]); err == nil {
		t.Errorf("deleting a foreign subtree accepted")
	}
	if _, err := d2.AddChild(es1["db"], "x=y", "top"); err == nil {
		t.Errorf("adding under a foreign parent accepted")
	}
	other, _ := d2.AddRoot("o=other", "top")
	if _, err := d1.GraftSubtree(es1["suciu"], other); err != nil {
		t.Errorf("grafting a subtree from another directory must work: %v", err)
	}
}

func TestEntryAccessorsAfterDeletion(t *testing.T) {
	d, es := buildWhitePages(t)
	suciu := es["suciu"]
	dn := suciu.DN()
	if err := d.DeleteLeaf(suciu); err != nil {
		t.Fatal(err)
	}
	if suciu.Directory() != nil {
		t.Errorf("deleted entry still claims a directory")
	}
	if d.ByDN(dn) != nil {
		t.Errorf("deleted entry still resolvable")
	}
}

func TestClassCountAndNames(t *testing.T) {
	d, _ := buildWhitePages(t)
	if d.ClassCount("person") != 3 || d.ClassCount("ghost") != 0 {
		t.Errorf("ClassCount wrong")
	}
	names := d.ClassNames()
	if len(names) == 0 || names[len(names)-1] != "top" {
		t.Errorf("ClassNames = %v", names)
	}
}

func TestNumPairsCountsObjectClass(t *testing.T) {
	d := New(nil)
	e, _ := d.AddRoot("o=x", "a", "b")
	e.AddValue("k", String("v1"))
	e.AddValue("k", String("v2"))
	if got := e.NumPairs(); got != 4 { // 2 classes + 2 values
		t.Errorf("NumPairs = %d, want 4", got)
	}
	if got := e.NumClasses(); got != 2 {
		t.Errorf("NumClasses = %d", got)
	}
}

func TestEntryString(t *testing.T) {
	d, es := buildWhitePages(t)
	_ = d
	s := es["laks"].String()
	if !strings.Contains(s, "uid=laks") || !strings.Contains(s, "researcher") {
		t.Errorf("String = %q", s)
	}
}

func TestValueAccessors(t *testing.T) {
	if Int(42).Int() != 42 || String("x").Int() != 0 {
		t.Errorf("Int accessor wrong")
	}
	if !Bool(true).Bool() || Int(1).Bool() {
		t.Errorf("Bool accessor wrong")
	}
}

func TestViewStringAndDirectory(t *testing.T) {
	d, es := buildWhitePages(t)
	d.EnsureEncoded()
	if got := d.All().String(); got != "D" {
		t.Errorf("All view String = %q", got)
	}
	if got := d.EmptyView().String(); got != "∅" {
		t.Errorf("Empty view String = %q", got)
	}
	if got := d.SubtreeView(es["db"]).String(); !strings.Contains(got, "Δ(") {
		t.Errorf("Subtree view String = %q", got)
	}
	if got := d.ExceptSubtreeView(es["db"]).String(); !strings.Contains(got, "D−Δ") {
		t.Errorf("ExceptSubtree view String = %q", got)
	}
	if d.All().Directory() != d {
		t.Errorf("view Directory accessor wrong")
	}
	if d.EmptyView().IsEmptyView() != true || d.All().IsEmptyView() {
		t.Errorf("IsEmptyView wrong")
	}
}

func TestRegistryAttrsListing(t *testing.T) {
	r := NewRegistry()
	r.Declare("a", TypeInt)
	r.Declare("b", TypeBool)
	got := r.Attrs()
	if len(got) != 3 { // objectClass + a + b
		t.Errorf("Attrs = %v", got)
	}
	var nilReg *Registry
	if nilReg.Attrs() != nil || nilReg.Type("x") != TypeString || nilReg.SingleValued("x") || nilReg.Declared("x") {
		t.Errorf("nil registry accessors wrong")
	}
}
