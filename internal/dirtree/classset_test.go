package dirtree

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// checkInterning holds the class-set table to a shadow model of every
// live entry's classes (want, sorted): each entry's interned names equal
// its classes, two live entries share a *ClassSet exactly when their
// classes are equal, the table holds exactly the distinct sets of live
// entries, and the posting lists agree with the reference encoding.
func checkInterning(t *testing.T, d *Directory, want map[*Entry][]string, step string) {
	t.Helper()
	sets := d.ClassSets()
	byKey := make(map[string]*ClassSet)
	for _, e := range sortedEntries(d) {
		cs := e.ClassSet()
		if !slices.Equal(cs.Names, want[e]) {
			t.Fatalf("%s: %s has interned classes %v, want %v", step, e.DN(), cs.Names, want[e])
		}
		if cs.ID >= len(sets) || sets[cs.ID] != cs {
			t.Fatalf("%s: %s's set %v is not in the table at its ID %d", step, e.DN(), cs.Names, cs.ID)
		}
		oc := e.Attr(AttrObjectClass)
		if len(oc) != len(cs.Names) {
			t.Fatalf("%s: %s has %d objectClass values for %d classes", step, e.DN(), len(oc), len(cs.Names))
		}
		for i, v := range oc {
			if v.String() != cs.Names[i] {
				t.Fatalf("%s: %s objectClass[%d] = %s, want %s", step, e.DN(), i, v, cs.Names[i])
			}
		}
		key := strings.Join(cs.Names, "\x00")
		if prev := byKey[key]; prev != nil && prev != cs {
			t.Fatalf("%s: class set %v is interned twice (IDs %d and %d)", step, cs.Names, prev.ID, cs.ID)
		}
		byKey[key] = cs
	}
	held := 0
	for id, cs := range sets {
		if cs == nil {
			continue
		}
		held++
		if cs.ID != id {
			t.Fatalf("%s: set %v sits at slot %d but has ID %d", step, cs.Names, id, cs.ID)
		}
	}
	if held != len(byKey) {
		t.Fatalf("%s: table holds %d sets, live entries carry %d distinct sets", step, held, len(byKey))
	}
	d.EnsureEncoded() // seals a new directory or a Clone; no-op once sealed
	checkEncoding(t, d, step)
}

// sortedSet returns names sorted and without duplicates, in a new slice.
func sortedSet(names ...string) []string {
	out := slices.Clone(names)
	slices.Sort(out)
	return slices.Compact(out)
}

// TestClassSetInterning drives random AddChild / AddClass / RemoveClass /
// SetValues(objectClass) / GraftSubtree / DeleteSubtree / Clone steps and
// checks the interned class sets against a shadow model after each one.
func TestClassSetInterning(t *testing.T) {
	pool := []string{"a", "b", "c", "d", "top"}
	randomClasses := func(rng *rand.Rand) []string {
		out := make([]string, rng.Intn(4)) // duplicates and the empty set included
		for i := range out {
			out[i] = pool[rng.Intn(len(pool))]
		}
		return out
	}
	rng := rand.New(rand.NewSource(11))
	d := New(nil)
	want := make(map[*Entry][]string)
	next := 0
	for step := 0; step < 3000; step++ {
		alive := sortedEntries(d)
		pick := func() *Entry { return alive[rng.Intn(len(alive))] }
		var what string
		switch op := rng.Intn(100); {
		case op < 30 || len(alive) == 0:
			next++
			classes := randomClasses(rng)
			var e *Entry
			var err error
			if len(alive) == 0 || rng.Intn(8) == 0 {
				e, err = d.AddRoot(fmt.Sprintf("o=r%d", next), classes...)
			} else {
				e, err = d.AddChild(pick(), fmt.Sprintf("cn=n%d", next), classes...)
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			what = fmt.Sprintf("add %s %v", e.DN(), classes)
			want[e] = sortedSet(classes...)
		case op < 45:
			e, c := pick(), pool[rng.Intn(len(pool))]
			what = fmt.Sprintf("AddClass %s %s", e.DN(), c)
			e.AddClass(c)
			want[e] = sortedSet(append(want[e], c)...)
		case op < 60:
			e, c := pick(), pool[rng.Intn(len(pool))]
			what = fmt.Sprintf("RemoveClass %s %s", e.DN(), c)
			e.RemoveClass(c)
			want[e] = slices.DeleteFunc(slices.Clone(want[e]), func(x string) bool { return x == c })
		case op < 70:
			e, classes := pick(), randomClasses(rng)
			what = fmt.Sprintf("SetValues objectClass %s %v", e.DN(), classes)
			vs := make([]Value, len(classes))
			for i, c := range classes {
				vs[i] = String(c)
			}
			e.SetValues(AttrObjectClass, vs...)
			want[e] = sortedSet(classes...)
		case op < 82:
			src, parent := pick(), pick()
			for a := parent; a != nil; a = a.parent {
				if a == src {
					parent = nil // never graft a subtree into itself
					break
				}
			}
			what = fmt.Sprintf("GraftSubtree %s", src.DN())
			root, err := d.GraftSubtree(parent, src)
			if err != nil {
				continue // DN taken at the copy's root: nothing was added
			}
			var shadow func(src, cp *Entry)
			shadow = func(src, cp *Entry) {
				want[cp] = want[src]
				for i, c := range src.children {
					shadow(c, cp.children[i])
				}
			}
			shadow(src, root)
		case op < 92:
			e := pick()
			what = fmt.Sprintf("DeleteSubtree %s", e.DN())
			if _, err := d.DeleteSubtree(e); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		default:
			what = "Clone"
			c := d.Clone()
			cw := make(map[*Entry][]string, len(alive))
			for _, e := range alive {
				cw[c.ByDN(e.DN())] = want[e]
			}
			d, want = c, cw
		}
		checkInterning(t, d, want, fmt.Sprintf("step %d (%s)", step, what))
	}

	// The bound: a thousand entries with novel classes come and go, and
	// the table is back to the sets of the entries that stayed.
	before := nonNil(d.ClassSets())
	src := New(nil)
	top, _ := src.AddRoot("ou=novel", "novelRoot")
	for i := 0; i < 1000; i++ {
		if _, err := src.AddChild(top, fmt.Sprintf("cn=x%d", i), "top", fmt.Sprintf("novel%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	root, err := d.GraftSubtree(nil, top)
	if err != nil {
		t.Fatal(err)
	}
	if got := nonNil(d.ClassSets()); got != before+1001 {
		t.Fatalf("graft of 1001 novel sets: table holds %d sets, want %d", got, before+1001)
	}
	if _, err := d.DeleteSubtree(root); err != nil {
		t.Fatal(err)
	}
	if got := nonNil(d.ClassSets()); got != before {
		t.Fatalf("after deleting the novel subtree the table holds %d sets, want %d", got, before)
	}
	checkInterning(t, d, want, "after the novel subtree")
}

func nonNil(sets []*ClassSet) int {
	n := 0
	for _, s := range sets {
		if s != nil {
			n++
		}
	}
	return n
}
