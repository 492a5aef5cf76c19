package hquery

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"boundschema/internal/dirtree"
	"boundschema/internal/filter"
)

// buildWhitePages constructs the paper's Figure 1 instance.
func buildWhitePages(t testing.TB) *dirtree.Directory {
	d := dirtree.New(dirtree.NewRegistry())
	att, err := d.AddRoot("o=att", "organization", "orgGroup", "online", "top")
	if err != nil {
		t.Fatal(err)
	}
	labs, _ := d.AddChild(att, "ou=attLabs", "orgUnit", "orgGroup", "top")
	_, _ = d.AddChild(labs, "uid=armstrong", "staffMember", "person", "top")
	db, _ := d.AddChild(labs, "ou=databases", "orgUnit", "orgGroup", "top")
	laks, _ := d.AddChild(db, "uid=laks", "researcher", "facultyMember", "person", "online", "top")
	laks.AddValue("mail", dirtree.String("laks@cs.concordia.ca"))
	_, _ = d.AddChild(db, "uid=suciu", "researcher", "person", "top")
	return d
}

func dns(es []*dirtree.Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.RDN()
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSelect(t *testing.T) {
	d := buildWhitePages(t)
	got := dns(Eval(ClassAtom("person"), NewBinding(d)))
	want := []string{"uid=armstrong", "uid=laks", "uid=suciu"}
	if !equalStrings(got, want) {
		t.Errorf("persons = %v, want %v", got, want)
	}
	got = dns(Eval(Select(filter.MustParse("(&(objectClass=person)(mail=*))")), NewBinding(d)))
	if !equalStrings(got, []string{"uid=laks"}) {
		t.Errorf("persons with mail = %v", got)
	}
	got = dns(Eval(Select(filter.MustParse("(mail=*concordia*)")), NewBinding(d)))
	if !equalStrings(got, []string{"uid=laks"}) {
		t.Errorf("substring scan = %v", got)
	}
}

func TestChildParent(t *testing.T) {
	d := buildWhitePages(t)
	b := NewBinding(d)
	// orgGroups with an orgUnit child: att and attLabs.
	got := dns(Eval(Child(ClassAtom("orgGroup"), ClassAtom("orgUnit")), b))
	if !equalStrings(got, []string{"o=att", "ou=attLabs"}) {
		t.Errorf("child join = %v", got)
	}
	// persons whose parent is an orgUnit: all three.
	got = dns(Eval(Parent(ClassAtom("person"), ClassAtom("orgUnit")), b))
	if !equalStrings(got, []string{"uid=armstrong", "uid=laks", "uid=suciu"}) {
		t.Errorf("parent join = %v", got)
	}
	// persons whose parent is an organization: none.
	if !Empty(Parent(ClassAtom("person"), ClassAtom("organization")), b) {
		t.Errorf("no person should sit directly under the organization")
	}
}

func TestDescAnc(t *testing.T) {
	d := buildWhitePages(t)
	b := NewBinding(d)
	// orgGroups with a person descendant: all three orgGroups.
	got := dns(Eval(Desc(ClassAtom("orgGroup"), ClassAtom("person")), b))
	if !equalStrings(got, []string{"o=att", "ou=attLabs", "ou=databases"}) {
		t.Errorf("desc join = %v", got)
	}
	// entries with an online ancestor: everything under o=att.
	got = dns(Eval(Anc(ClassAtom("top"), ClassAtom("online")), b))
	if !equalStrings(got, []string{"ou=attLabs", "uid=armstrong", "ou=databases", "uid=laks", "uid=suciu"}) {
		t.Errorf("anc join = %v", got)
	}
	// Proper ancestry: laks has the online ancestor o=att, but o=att has
	// no online ancestor (it is not its own ancestor).
	got = dns(Eval(Anc(ClassAtom("online"), ClassAtom("online")), b))
	if !equalStrings(got, []string{"uid=laks"}) {
		t.Errorf("anc(online, online) = %v, want [uid=laks]", got)
	}
	got = dns(Eval(Desc(ClassAtom("online"), ClassAtom("online")), b))
	if !equalStrings(got, []string{"o=att"}) {
		t.Errorf("desc(online, online) = %v, want [o=att]", got)
	}
}

func TestMinus(t *testing.T) {
	d := buildWhitePages(t)
	b := NewBinding(d)
	// persons that are not researchers: armstrong.
	got := dns(Eval(Minus(ClassAtom("person"), ClassAtom("researcher")), b))
	if !equalStrings(got, []string{"uid=armstrong"}) {
		t.Errorf("minus = %v", got)
	}
}

// TestPaperQ1Q2Q3 replays the three queries worked out in Section 3.2.
func TestPaperQ1Q2Q3(t *testing.T) {
	d := buildWhitePages(t)
	b := NewBinding(d)

	// Q1: orgGroups without a person descendant — must be empty on the
	// legal Figure 1 instance.
	q1 := Minus(ClassAtom("orgGroup"), Desc(ClassAtom("orgGroup"), ClassAtom("person")))
	if !Empty(q1, b) {
		t.Errorf("Q1 should be empty on the legal instance: %v", dns(Eval(q1, b)))
	}

	// Q2: persons with a child of class top (i.e. any child) — empty.
	q2 := Child(ClassAtom("person"), ClassAtom("top"))
	if !Empty(q2, b) {
		t.Errorf("Q2 should be empty: %v", dns(Eval(q2, b)))
	}

	// Q3: (objectClass=orgUnit) — non-empty.
	if Empty(ClassAtom("orgUnit"), b) {
		t.Errorf("Q3 should be non-empty")
	}

	// Break the instance: a person acquires a child; Q2 must now find it.
	laks := d.ByDN("uid=laks,ou=databases,ou=attLabs,o=att")
	if _, err := d.AddChild(laks, "cn=gadget", "top"); err != nil {
		t.Fatal(err)
	}
	if Empty(q2, NewBinding(d)) {
		t.Errorf("Q2 should be non-empty after giving a person a child")
	}
}

func TestInstanceTags(t *testing.T) {
	d := buildWhitePages(t)
	db := d.ByDN("ou=databases,ou=attLabs,o=att")
	b := DeltaBinding(d, db)

	if got := len(Eval(ClassAtomOn("person", InstDelta), b)); got != 2 {
		t.Errorf("persons in delta = %d, want 2", got)
	}
	if got := len(Eval(ClassAtomOn("person", InstBase), b)); got != 1 {
		t.Errorf("persons in base = %d, want 1", got)
	}
	if got := len(Eval(ClassAtomOn("person", InstFull), b)); got != 3 {
		t.Errorf("persons in full = %d, want 3", got)
	}
	if got := len(Eval(ClassAtomOn("person", InstEmpty), b)); got != 0 {
		t.Errorf("persons in empty = %d, want 0", got)
	}
	// Mixed-instance join: delta persons whose parent is in full.
	q := Parent(ClassAtomOn("person", InstDelta), ClassAtomOn("orgUnit", InstFull))
	if got := len(Eval(q, b)); got != 2 {
		t.Errorf("mixed-instance parent join = %d, want 2", got)
	}
}

func TestSize(t *testing.T) {
	q := Minus(ClassAtom("a"), Desc(ClassAtom("a"), ClassAtom("b")))
	if got := q.Size(); got != 5 {
		t.Errorf("Size = %d, want 5", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	srcs := []string{
		"(select (objectClass=person))",
		"(select (objectClass=person) @delta)",
		"(select (objectClass=person) @base)",
		"(select (objectClass=person) @full)",
		"(select (objectClass=person) @0)",
		"(select (&(objectClass=person)(mail=*)))",
		"(child (select (objectClass=a)) (select (objectClass=b)))",
		"(parent (select (objectClass=a)) (select (objectClass=b)))",
		"(desc (select (objectClass=a)) (select (objectClass=b)))",
		"(anc (select (objectClass=a)) (select (objectClass=b)))",
		"(minus (select (objectClass=orgGroup)) (desc (select (objectClass=orgGroup)) (select (objectClass=person))))",
	}
	for _, src := range srcs {
		q, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		again, err := Parse(String(q))
		if err != nil {
			t.Errorf("reparse of %q: %v", String(q), err)
			continue
		}
		if String(again) != String(q) {
			t.Errorf("round trip unstable: %q -> %q", String(q), String(again))
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select (a=b)",
		"(select)",
		"(select (a=b) @nowhere)",
		"(frobnicate (select (a=b)) (select (c=d)))",
		"(child (select (a=b)))",
		"(child (select (a=b)) (select (c=d)) (select (e=f)))",
		"(select (a=b)) trailing",
		"(select (a=b",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// ---------------------------------------------------------------------
// Differential testing against a naive quadratic evaluator.

func naiveEval(q Query, b Binding) map[*dirtree.Entry]bool {
	switch t := q.(type) {
	case selectQ:
		out := make(map[*dirtree.Entry]bool)
		for _, e := range b.view(t.inst).Entries() {
			if t.f.Matches(e) {
				out[e] = true
			}
		}
		return out
	case binQ:
		left := naiveEval(t.left, b)
		right := naiveEval(t.right, b)
		out := make(map[*dirtree.Entry]bool)
		for l := range left {
			switch t.kind {
			case opChild:
				for _, c := range l.Children() {
					if right[c] {
						out[l] = true
						break
					}
				}
			case opParent:
				if p := l.Parent(); p != nil && right[p] {
					out[l] = true
				}
			case opDesc:
				var walk func(e *dirtree.Entry) bool
				walk = func(e *dirtree.Entry) bool {
					for _, c := range e.Children() {
						if right[c] || walk(c) {
							return true
						}
					}
					return false
				}
				if walk(l) {
					out[l] = true
				}
			case opAnc:
				for p := l.Parent(); p != nil; p = p.Parent() {
					if right[p] {
						out[l] = true
						break
					}
				}
			case opMinus:
				if !right[l] {
					out[l] = true
				}
			}
		}
		return out
	}
	return nil
}

func randomForest(rng *rand.Rand, n int) *dirtree.Directory {
	d := dirtree.New(nil)
	classes := []string{"a", "b", "c"}
	var all []*dirtree.Entry
	for i := 0; i < n; i++ {
		cs := []string{"top"}
		for _, c := range classes {
			if rng.Intn(3) == 0 {
				cs = append(cs, c)
			}
		}
		var e *dirtree.Entry
		if len(all) == 0 || rng.Intn(6) == 0 {
			e, _ = d.AddRoot("r="+strconv.Itoa(i), cs...)
		} else {
			e, _ = d.AddChild(all[rng.Intn(len(all))], "n="+strconv.Itoa(i), cs...)
		}
		all = append(all, e)
	}
	return d
}

func randomQuery(rng *rand.Rand, depth int) Query {
	classes := []string{"a", "b", "c", "top"}
	if depth <= 0 || rng.Intn(3) == 0 {
		insts := []Inst{InstDefault, InstDelta, InstBase, InstFull, InstEmpty}
		return ClassAtomOn(classes[rng.Intn(len(classes))], insts[rng.Intn(len(insts))])
	}
	l := randomQuery(rng, depth-1)
	r := randomQuery(rng, depth-1)
	switch rng.Intn(5) {
	case 0:
		return Child(l, r)
	case 1:
		return Parent(l, r)
	case 2:
		return Desc(l, r)
	case 3:
		return Anc(l, r)
	default:
		return Minus(l, r)
	}
}

// Property: the merge/hash-join evaluator agrees with the naive evaluator
// on random forests, random queries, and random delta bindings.
func TestQuickEvalMatchesNaive(t *testing.T) {
	f := func(seed int64, size uint8, qdepth uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomForest(rng, int(size%60)+3)
		ents := d.Entries()
		b := DeltaBinding(d, ents[rng.Intn(len(ents))])
		q := randomQuery(rng, int(qdepth%4))
		fast := Eval(q, b)
		slow := naiveEval(q, b)
		if len(fast) != len(slow) {
			t.Logf("query %s: fast %d, slow %d", String(q), len(fast), len(slow))
			return false
		}
		prev := -1
		for _, e := range fast {
			if !slow[e] {
				return false
			}
			if e.Pre() <= prev {
				t.Logf("query %s: result not pre-sorted", String(q))
				return false
			}
			prev = e.Pre()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// Property: evaluation over the delta and base views partitions the
// evaluation over the full view for any atomic selection.
func TestQuickSelectViewPartition(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomForest(rng, int(size%60)+3)
		ents := d.Entries()
		b := DeltaBinding(d, ents[rng.Intn(len(ents))])
		for _, c := range []string{"a", "b", "top"} {
			nd := len(Eval(ClassAtomOn(c, InstDelta), b))
			nb := len(Eval(ClassAtomOn(c, InstBase), b))
			nf := len(Eval(ClassAtomOn(c, InstFull), b))
			if nd+nb != nf {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSkewedFastPaths forces the probe-based evaluation paths (small
// operand vs large atomic operand) and compares them against the naive
// evaluator.
func TestSkewedFastPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := dirtree.New(nil)
	var all []*dirtree.Entry
	for i := 0; i < 4000; i++ {
		cs := []string{"top", "common"}
		if rng.Intn(400) == 0 {
			cs = append(cs, "rare")
		}
		var e *dirtree.Entry
		if len(all) == 0 {
			e, _ = d.AddRoot("r=0", cs...)
		} else {
			e, _ = d.AddChild(all[rng.Intn(len(all))], "n="+strconv.Itoa(i), cs...)
		}
		all = append(all, e)
	}
	b := NewBinding(d)
	queries := []Query{
		Parent(ClassAtom("rare"), ClassAtom("common")), // probeParent
		Anc(ClassAtom("rare"), ClassAtom("common")),    // probeAnc
		Child(ClassAtom("common"), ClassAtom("rare")),  // probeChild
		Desc(ClassAtom("common"), ClassAtom("rare")),   // probeDesc
		Desc(ClassAtom("top"), ClassAtom("rare")),
		Child(ClassAtom("top"), ClassAtom("rare")),
	}
	for _, q := range queries {
		fast := Eval(q, b)
		slow := naiveEval(q, b)
		if len(fast) != len(slow) {
			t.Errorf("%s: fast %d, slow %d", String(q), len(fast), len(slow))
			continue
		}
		prev := -1
		for _, e := range fast {
			if !slow[e] {
				t.Errorf("%s: spurious result %s", String(q), e.DN())
			}
			if e.Pre() <= prev {
				t.Errorf("%s: result not pre-sorted", String(q))
			}
			prev = e.Pre()
		}
	}
}

func TestEvalWithStats(t *testing.T) {
	d := buildWhitePages(t)
	q := Minus(ClassAtom("orgGroup"), Desc(ClassAtom("orgGroup"), ClassAtom("person")))
	out, st := EvalWithStats(q, NewBinding(d))
	if len(out) != 0 {
		t.Fatalf("Q1 should be empty on the legal instance")
	}
	if len(st.Nodes) != 5 {
		t.Fatalf("stats nodes = %d, want 5", len(st.Nodes))
	}
	// The fast evaluator must agree with the instrumented one.
	fast := Eval(q, NewBinding(d))
	if len(fast) != len(out) {
		t.Errorf("instrumented eval disagrees with Eval")
	}
	if st.TotalWork() == 0 {
		t.Errorf("work accounting is zero")
	}
	s := st.String()
	for _, want := range []string{"minus", "desc", "posting-list", "out="} {
		if !strings.Contains(s, want) {
			t.Errorf("stats rendering missing %q:\n%s", want, s)
		}
	}
	// Root comes first, atoms come indented below.
	if !strings.HasPrefix(s, "minus") {
		t.Errorf("root not first:\n%s", s)
	}
}

// Property: instrumented evaluation matches the fast evaluator on random
// queries and bindings.
func TestQuickStatsEvalMatchesFast(t *testing.T) {
	f := func(seed int64, size, qdepth uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomForest(rng, int(size%50)+3)
		ents := d.Entries()
		b := DeltaBinding(d, ents[rng.Intn(len(ents))])
		q := randomQuery(rng, int(qdepth%3))
		fast := Eval(q, b)
		slow, st := EvalWithStats(q, b)
		if len(fast) != len(slow) {
			return false
		}
		for i := range fast {
			if fast[i] != slow[i] {
				return false
			}
		}
		return len(st.Nodes) == q.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestStatsReportProbePaths: on a skewed Δ binding, the kind Figure 5
// checks run on, EXPLAIN shows the probe path Eval takes and the atom it
// tested per candidate, not a merge over the materialized atom.
func TestStatsReportProbePaths(t *testing.T) {
	d := dirtree.New(nil)
	root, _ := d.AddRoot("r=0", "top", "common")
	for i := 0; i < 400; i++ {
		_, _ = d.AddChild(root, "n="+strconv.Itoa(i), "top", "common")
	}
	delta, _ := d.AddChild(root, "n=delta", "top", "common")
	_, _ = d.AddChild(delta, "n=x", "top", "rare")
	_, _ = d.AddChild(delta, "n=y", "top", "rare")
	b := DeltaBinding(d, delta)
	rare, common := ClassAtomOn("rare", InstDelta), ClassAtomOn("common", InstFull)
	for _, tc := range []struct {
		q    Query
		want string
	}{
		{Parent(rare, common), "probe-parent"},
		{Anc(rare, common), "probe-anc"},
		{Child(common, rare), "probe-child"},
		{Desc(common, rare), "probe-desc"},
	} {
		out, st := EvalWithStats(tc.q, b)
		if got := Eval(tc.q, b); !equalStrings(dns(out), dns(got)) || len(got) == 0 {
			t.Errorf("%s: EvalWithStats %v, Eval %v", String(tc.q), dns(out), dns(got))
		}
		if len(st.Nodes) != tc.q.Size() {
			t.Errorf("%s: %d stats nodes, want %d", String(tc.q), len(st.Nodes), tc.q.Size())
		}
		s := st.String()
		if !strings.HasPrefix(s, opNames[tc.q.(binQ).kind]+" ") || !strings.Contains(s, tc.want) ||
			!strings.Contains(s, "matcher") {
			t.Errorf("%s: EXPLAIN does not show %s over a matcher:\n%s", String(tc.q), tc.want, s)
		}
	}
}
