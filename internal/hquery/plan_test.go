package hquery

import (
	"fmt"
	"strings"
	"testing"

	"boundschema/internal/dirtree"
)

// buildTypedDir returns a directory with skewed class populations and
// typed attributes, sized so each access path has a clear winner:
// 20 hosts (port TypeInt, name strings), 4 persons, 1 admin.
func buildTypedDir(t testing.TB) *dirtree.Directory {
	t.Helper()
	reg := dirtree.NewRegistry()
	reg.Declare("port", dirtree.TypeInt)
	d := dirtree.New(reg)
	root, err := d.AddRoot("o=net", "organization", "top")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		h, err := d.AddChild(root, fmt.Sprintf("cn=host%02d", i), "host", "top")
		if err != nil {
			t.Fatal(err)
		}
		h.AddValue("port", dirtree.Int(int64(8000+i)))
		h.AddValue("name", dirtree.String(fmt.Sprintf("machine-%02d", i)))
	}
	people, _ := d.AddChild(root, "ou=people", "orgUnit", "top")
	for _, n := range []string{"alice", "albert", "bob", "carol"} {
		p, err := d.AddChild(people, "uid="+n, "person", "top")
		if err != nil {
			t.Fatal(err)
		}
		p.AddValue("name", dirtree.String(n))
	}
	admin, _ := d.AddChild(people, "uid=root", "person", "admin", "top")
	admin.AddValue("name", dirtree.String("administrator"))
	return d
}

// TestPlanStrategies pins the access path the planner chooses for each
// atom shape, including the smallest-posting-list fix: a conjunction
// naming several object classes must read the smallest list, not the
// first one.
func TestPlanStrategies(t *testing.T) {
	d := buildTypedDir(t)
	v := d.All()
	cases := []struct {
		src      string
		strategy string
		arg      string
		filtered bool
	}{
		{"(objectClass=person)", "posting-list", "person", false},
		// First-atom order must not matter: "top" covers everything,
		// "admin" has one entry.
		{"(&(objectClass=top)(objectClass=admin))", "posting-list", "admin", true},
		{"(&(objectClass=admin)(objectClass=top))", "posting-list", "admin", true},
		{"(name=alice)", "index-eq", "name", false},
		{"(port=8003)", "index-eq", "port", false},
		{"(port>=8015)", "index-range", "port", false},
		{"(port<=8003)", "index-range", "port", false},
		{"(name=al*)", "index-prefix", "name", false},
		{"(name=al*e)", "index-prefix", "name", true}, // prefix over-approximates
		{"(name=*ce)", "scan", "", false},             // no initial segment
		{"(port=*)", "index-present", "port", false},
		{"(port>=oops)", "empty", "", false},                     // typed range: parse error matches nothing
		{"(&(objectClass=host)(port>=zzz))", "empty", "", false}, // ...and empties the conjunction
		{"(port=oops)", "scan", "", false},                       // equality keeps its string fallback
		{"(name~=alice)", "scan", "", false},
		{"(|(name=alice)(name=bob))", "scan", "", false},
		{"(objectClass=al*)", "scan", "", false}, // objectClass is never in the value trees
		{"(objectClass>=a)", "scan", "", false},
		// Index beats the class posting list when strictly smaller.
		{"(&(objectClass=person)(name=alice))", "index-eq", "name", true},
		// ...but the class list wins against a wide range.
		{"(&(objectClass=admin)(port>=0))", "posting-list", "admin", true},
	}
	for _, c := range cases {
		f := mustFilter(c.src)
		p := PlanSelect(f, v)
		if p.Strategy != c.strategy {
			t.Errorf("%s: strategy = %s, want %s", c.src, p.Strategy, c.strategy)
			continue
		}
		if c.arg != "" && p.Arg != c.arg {
			t.Errorf("%s: arg = %q, want %q", c.src, p.Arg, c.arg)
		}
		if p.Filtered != c.filtered {
			t.Errorf("%s: filtered = %v, want %v", c.src, p.Filtered, c.filtered)
		}
		if p.ScanCost != v.Len() && c.strategy != "empty" {
			t.Errorf("%s: scanCost = %d, want %d", c.src, p.ScanCost, v.Len())
		}
		if p.Est > p.ScanCost && c.strategy != "empty" {
			t.Errorf("%s: est %d exceeds the scan baseline %d", c.src, p.Est, p.ScanCost)
		}
	}
}

// TestPlanEquivalence is the hquery-level differential oracle: for every
// filter shape, the planned path must return exactly what a brute-force
// scan returns — over the full instance and over clipped views.
func TestPlanEquivalence(t *testing.T) {
	d := buildTypedDir(t)
	filters := []string{
		"(objectClass=person)",
		"(&(objectClass=top)(objectClass=admin))",
		"(name=alice)",
		"(name=nosuch)",
		"(port=8003)",
		"(port=08003)", // typed equality ignores leading zeros
		"(port>=8010)",
		"(port<=8005)",
		"(&(port>=8005)(port<=8010))",
		"(port>=oops)",
		"(name=al*)",
		"(name=al*e)",
		"(name=ma*ne*)",
		"(name=*ce)",
		"(name=*)",
		"(port=*)",
		"(fax=*)",
		"(name~=ALICE)",
		"(!(objectClass=host))",
		"(|(name=alice)(port<=8002))",
		"(&(objectClass=host)(port>=8018)(name=machine*))",
	}
	var roots []*dirtree.Entry
	for _, e := range d.Entries() {
		if strings.HasPrefix(e.RDN(), "ou=") || strings.HasPrefix(e.RDN(), "o=") {
			roots = append(roots, e)
		}
	}
	views := []dirtree.View{d.All(), d.EmptyView()}
	for _, r := range roots {
		views = append(views, d.SubtreeView(r), d.ExceptSubtreeView(r))
	}
	for _, src := range filters {
		f := mustFilter(src)
		for _, v := range views {
			got, _ := EvalSelect(f, v)
			var want []*dirtree.Entry
			for _, e := range v.Entries() {
				if f.Matches(e) {
					want = append(want, e)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s over %s: got %d entries, want %d", src, v, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s over %s: entry %d = %s, want %s", src, v, i, got[i].DN(), want[i].DN())
					break
				}
			}
		}
	}
}

// TestPlanAfterMutation re-plans after updates flow through the
// incremental index maintenance: new values must be found, removed
// values must disappear, and estimates must track the tree.
func TestPlanAfterMutation(t *testing.T) {
	d := buildTypedDir(t)
	v := d.All()
	f := mustFilter("(name=zed)")
	if got, p := EvalSelect(f, v); len(got) != 0 || p.Strategy != "index-eq" {
		t.Fatalf("before insert: %d entries via %s", len(got), p.Strategy)
	}
	people := d.Entries()[21] // ou=people
	if people.RDN() != "ou=people" {
		t.Fatalf("layout changed: entry 21 is %s", people.RDN())
	}
	z, err := d.AddChild(people, "uid=zed", "person", "top")
	if err != nil {
		t.Fatal(err)
	}
	z.AddValue("name", dirtree.String("zed"))
	got, p := EvalSelect(f, d.All())
	if len(got) != 1 || got[0] != z || p.Est != 1 {
		t.Fatalf("after insert: %d entries, est %d", len(got), p.Est)
	}
	z.RemoveValue("name", dirtree.String("zed"))
	if got, _ := EvalSelect(f, d.All()); len(got) != 0 {
		t.Fatalf("after remove: still %d entries", len(got))
	}
}

// TestStatsPlannerLabels checks the EXPLAIN surface: instrumented runs
// report the planner's strategy and estimate per atom.
func TestStatsPlannerLabels(t *testing.T) {
	d := buildTypedDir(t)
	b := NewBinding(d)
	q := Parent(selectAtom(mustFilter("(name=alice)")), ClassAtom("orgUnit"))
	out, st := EvalWithStats(q, b)
	if len(out) != 1 || out[0].RDN() != "uid=alice" {
		t.Fatalf("result = %v", dns(out))
	}
	if len(st.Nodes) != 3 {
		t.Fatalf("node count = %d", len(st.Nodes))
	}
	if st.Nodes[0].Strategy != "index-eq" || st.Nodes[0].Est != 1 {
		t.Errorf("atom 0: strategy %s est %d, want index-eq est 1", st.Nodes[0].Strategy, st.Nodes[0].Est)
	}
	if st.Nodes[1].Strategy != "posting-list" {
		t.Errorf("atom 1: strategy %s, want posting-list", st.Nodes[1].Strategy)
	}
	rendered := st.String()
	for _, want := range []string{"index-eq", "posting-list", "est=", "out="} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered stats missing %q:\n%s", want, rendered)
		}
	}
}
