package dirtree

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referenceValues computes attr's value→postings map independently,
// walking the forest links only: for each distinct value, the entries
// holding it, in pre-order, each at most once.
func referenceValues(d *Directory, attr string) map[Value][]*Entry {
	model := make(map[Value][]*Entry)
	var walk func(e *Entry)
	walk = func(e *Entry) {
		seen := make(map[Value]bool)
		for _, v := range e.attrs[attr] {
			if !seen[v] {
				seen[v] = true
				model[v] = append(model[v], e)
			}
		}
		for _, c := range e.children {
			walk(c)
		}
	}
	for _, r := range d.roots {
		walk(r)
	}
	return model
}

// checkValueTree asserts that attr's maintained B+tree is
// indistinguishable from the reference model: same key set in strictly
// increasing order, identical pre-sorted postings, consistent pair and
// non-text counters, and rank queries agreeing with posting lengths.
func checkValueTree(t *testing.T, d *Directory, attr, step string) {
	t.Helper()
	tree := d.valueTree(attr)
	model := referenceValues(d, attr)
	checkNodes(t, tree, attr, step)

	gotKeys := 0
	pairs, nonText := 0, 0
	var prev Value
	tree.scanFrom(nil, func(k Value, posting []*Entry) bool {
		if gotKeys > 0 && prev.Compare(k) >= 0 {
			t.Fatalf("%s: %s keys out of order: %v then %v", step, attr, prev, k)
		}
		prev = k
		gotKeys++
		want := model[k]
		if len(posting) == 0 {
			t.Fatalf("%s: %s key %v has an empty posting", step, attr, k)
		}
		if len(posting) != len(want) {
			t.Fatalf("%s: %s key %v posting length %d, reference %d", step, attr, k, len(posting), len(want))
		}
		for i := range want {
			if posting[i] != want[i] {
				t.Fatalf("%s: %s key %v posting[%d] = %s, reference %s", step, attr, k, i, posting[i].DN(), want[i].DN())
			}
		}
		if got := tree.countRange(&k, &k); got != len(want) {
			t.Fatalf("%s: %s countRange(%v) = %d, posting has %d", step, attr, k, got, len(want))
		}
		pairs += len(posting)
		if !textSafe(k) {
			nonText += len(posting)
		}
		return true
	})
	if gotKeys != len(model) {
		t.Fatalf("%s: %s has %d keys, reference %d", step, attr, gotKeys, len(model))
	}
	if tree.pairs != pairs {
		t.Fatalf("%s: %s pairs counter %d, actual %d", step, attr, tree.pairs, pairs)
	}
	if tree.nonText != nonText {
		t.Fatalf("%s: %s nonText counter %d, actual %d", step, attr, tree.nonText, nonText)
	}
	if got := tree.countRange(nil, nil); got != pairs {
		t.Fatalf("%s: %s unbounded countRange %d, pairs %d", step, attr, got, pairs)
	}
}

// checkNodes walks the tree node by node: every internal count equals its
// kid's posting total, every separator splits its two neighbours (keys in
// kids[i] < keys[i] <= keys in kids[i+1]), and the leaf chain links
// exactly the leaves the descent reaches, left to right.
func checkNodes(t *testing.T, tree *bptree, attr, step string) {
	t.Helper()
	if tree.root == nil {
		return
	}
	var leaves []*bpnode
	var walk func(n *bpnode, lo, hi *Value)
	walk = func(n *bpnode, lo, hi *Value) {
		if n.leaf {
			for _, k := range n.keys {
				if lo != nil && k.Compare(*lo) < 0 || hi != nil && k.Compare(*hi) >= 0 {
					t.Fatalf("%s: %s key %v lies outside its separators", step, attr, k)
				}
			}
			leaves = append(leaves, n)
			return
		}
		if len(n.kids) != len(n.keys)+1 || len(n.count) != len(n.kids) {
			t.Fatalf("%s: %s node has %d kids, %d keys, %d counts", step, attr, len(n.kids), len(n.keys), len(n.count))
		}
		for i, kid := range n.kids {
			if n.count[i] != subCount(kid) {
				t.Fatalf("%s: %s count[%d] = %d, kid holds %d", step, attr, i, n.count[i], subCount(kid))
			}
			klo, khi := lo, hi
			if i > 0 {
				klo = &n.keys[i-1]
			}
			if i < len(n.keys) {
				khi = &n.keys[i]
			}
			walk(kid, klo, khi)
		}
	}
	walk(tree.root, nil, nil)
	i := 0
	for n := leaves[0]; n != nil; n = n.next {
		if i == len(leaves) || leaves[i] != n {
			t.Fatalf("%s: %s leaf chain leaves the tree's leaf order at leaf %d", step, attr, i)
		}
		i++
	}
	if i != len(leaves) {
		t.Fatalf("%s: %s leaf chain links %d of %d leaves", step, attr, i, len(leaves))
	}
}

// TestValueIndexDifferential drives the same randomized workload shape as
// TestIncrementalEncodingDifferential — adds, deletes, grafts (including
// ones that fail at the root or midway), class churn, typed value
// writes — and after every op asserts the maintained value trees are
// identical to an independent recomputation. Probing every step keeps the
// trees built, so the incremental hooks are what is tested.
func TestValueIndexDifferential(t *testing.T) {
	attrs := []string{"name", "port", "tel", "mixed"}
	valuePool := func(rng *rand.Rand, attr string) Value {
		switch attr {
		case "port":
			return Int(int64(rng.Intn(8)))
		case "tel":
			return Tel(fmt.Sprintf("+1-20%d", rng.Intn(8)))
		case "mixed":
			if rng.Intn(2) == 0 {
				return Int(int64(rng.Intn(4)))
			}
			return String(fmt.Sprintf("m%d", rng.Intn(4)))
		default:
			return String(fmt.Sprintf("v%d", rng.Intn(8)))
		}
	}
	classPool := []string{"person", "org", "device"}
	rng := rand.New(rand.NewSource(11))
	d := New(nil)
	d.EnsureEncoded()
	nextName := 0

	for step := 0; step < 2500; step++ {
		alive := sortedEntries(d)
		pick := func() *Entry {
			if len(alive) == 0 {
				return nil
			}
			return alive[rng.Intn(len(alive))]
		}
		op := rng.Intn(100)
		var what string
		switch {
		case op < 12 || len(alive) == 0: // add root
			nextName++
			what = "AddRoot"
			r, err := d.AddRoot(fmt.Sprintf("o=r%d", nextName), classPool[rng.Intn(len(classPool))])
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			a := attrs[rng.Intn(len(attrs))]
			r.AddValue(a, valuePool(rng, a))
		case op < 35: // add child with a couple of values
			p := pick()
			nextName++
			what = "AddChild"
			e, err := d.AddChild(p, fmt.Sprintf("cn=n%d", nextName), classPool[rng.Intn(len(classPool))])
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for i := rng.Intn(3); i >= 0; i-- {
				a := attrs[rng.Intn(len(attrs))]
				e.AddValue(a, valuePool(rng, a))
			}
		case op < 45: // delete a leaf
			var leaf *Entry
			for _, e := range alive {
				if e.IsLeaf() {
					leaf = e
					if rng.Intn(3) == 0 {
						break
					}
				}
			}
			if leaf == nil {
				continue
			}
			what = "DeleteLeaf"
			if err := d.DeleteLeaf(leaf); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case op < 53: // delete a whole subtree
			what = "DeleteSubtree"
			if _, err := d.DeleteSubtree(pick()); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case op < 63: // graft a copy of one subtree elsewhere (may fail)
			src := pick()
			var parent *Entry
			if rng.Intn(5) > 0 {
				parent = pick()
				for a := parent; a != nil; a = a.parent {
					if a == src {
						parent = nil
						break
					}
				}
			}
			what = "GraftSubtree"
			_, _ = d.GraftSubtree(parent, src)
		case op < 70: // class churn: must not disturb value trees
			e := pick()
			c := classPool[rng.Intn(len(classPool))]
			what = "class churn"
			if rng.Intn(2) == 0 {
				e.AddClass(c)
			} else {
				e.RemoveClass(c)
			}
		case op < 92: // typed value writes, the hooks under test
			e := pick()
			a := attrs[rng.Intn(len(attrs))]
			switch rng.Intn(4) {
			case 0:
				what = "AddValue"
				e.AddValue(a, valuePool(rng, a))
			case 1:
				what = "RemoveValue"
				e.RemoveValue(a, valuePool(rng, a))
			case 2:
				what = "SetValues"
				n := rng.Intn(4)
				vs := make([]Value, n)
				for i := range vs {
					vs[i] = valuePool(rng, a) // duplicates possible, on purpose
				}
				e.SetValues(a, vs...)
			default:
				what = "SetValues clear"
				e.SetValues(a)
			}
		default: // a graft that fails midway must leave the trees alone
			what = "malformed graft"
			_, _ = d.GraftSubtree(pick(), malformedSource(classPool[rng.Intn(len(classPool))]))
		}
		for _, a := range attrs {
			checkValueTree(t, d, a, fmt.Sprintf("step %d (%s)", step, what))
		}
	}
}

// TestValueIndexQueries exercises the public probe API on a typed corpus:
// exact lookups, one- and two-sided ranges over integers, prefix probes
// over strings, and the exactness gate on mixed-type attributes.
func TestValueIndexQueries(t *testing.T) {
	reg := NewRegistry()
	reg.Declare("port", TypeInt)
	d := New(reg)
	root, err := d.AddRoot("o=net", "org")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"alice", "alan", "bob", "carol", "albert"}
	for i, n := range names {
		e, err := d.AddChild(root, fmt.Sprintf("cn=h%d", i), "host")
		if err != nil {
			t.Fatal(err)
		}
		e.AddValue("name", String(n))
		e.AddValue("port", Int(int64(80+10*i)))
		e.AddValue("mixed", Int(int64(i)))
		e.AddValue("mixed", String(n))
	}

	if got := d.ValueCount("name", String("alice")); got != 1 {
		t.Fatalf("ValueCount(alice) = %d", got)
	}
	if got := d.ValueEntries("name", String("zeno")); got != nil {
		t.Fatalf("ValueEntries(zeno) = %v", got)
	}
	// Ints probe semantically: 80,90,100,110,120 — [90, 110] has three.
	lo, hi := Int(90), Int(110)
	if got := len(d.ValueRangeEntries("port", &lo, &hi)); got != 3 {
		t.Fatalf("port range [90,110] matched %d entries", got)
	}
	if got := d.ValueRangeCount("port", &lo, nil); got != 4 {
		t.Fatalf("port range [90,∞) count = %d", got)
	}
	if got := d.ValueRangeCount("port", nil, nil); got != 5 {
		t.Fatalf("port unbounded count = %d", got)
	}
	// A string-ordered probe of the same attr would miss: "110" < "80".
	ents, ok := d.ValuePrefixEntries("name", "al")
	if !ok || len(ents) != 3 {
		t.Fatalf("name prefix al = %v entries, ok=%v", len(ents), ok)
	}
	if n, ok := d.ValuePrefixCount("name", "al"); !ok || n != 3 {
		t.Fatalf("name prefix count al = %d, ok=%v", n, ok)
	}
	if _, ok := d.ValuePrefixEntries("mixed", "a"); ok {
		t.Fatal("prefix probe on a mixed-type attribute claimed exactness")
	}
	if _, ok := d.ValuePrefixCount("mixed", "a"); ok {
		t.Fatal("prefix count on a mixed-type attribute claimed exactness")
	}
	// Every posting of a multi-valued probe dedups to one entry each.
	if got := len(d.ValueRangeEntries("mixed", nil, nil)); got != 5 {
		t.Fatalf("mixed unbounded probe = %d entries, want 5", got)
	}
	if got := d.ValuePairs("mixed"); got != 10 {
		t.Fatalf("mixed ValuePairs = %d, want 10", got)
	}
}

// TestValueIndexLargeBulk bulk-builds a tree past several split levels
// and cross-checks rank queries against brute force, over entries that
// hold one value twice and over mixed Int/String keys.
func TestValueIndexLargeBulk(t *testing.T) {
	d := New(nil)
	root, err := d.AddRoot("o=big", "org")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	vals := make([]int64, 0, 5000)
	for i := 0; i < 5000; i++ {
		e, err := d.AddChild(root, fmt.Sprintf("cn=e%d", i), "host")
		if err != nil {
			t.Fatal(err)
		}
		v := int64(rng.Intn(2000))
		if i%97 == 0 {
			e.SetValues("port", Int(v), Int(v)) // stored twice, indexed once
		} else {
			e.AddValue("port", Int(v))
		}
		vals = append(vals, v)
		if i%2 == 0 {
			e.AddValue("mixed", Int(int64(i%300)))
		} else {
			e.AddValue("mixed", String(fmt.Sprintf("m%d", i%300)))
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, probe := range []int64{-5, 0, 17, 999, 1999, 2500} {
		lo := Int(probe)
		want := len(vals) - sort.Search(len(vals), func(i int) bool { return vals[i] >= probe })
		if got := d.ValueRangeCount("port", &lo, nil); got != want {
			t.Fatalf("countRange [%d,∞) = %d, brute force %d", probe, got, want)
		}
	}
	checkValueTree(t, d, "port", "bulk")
	checkValueTree(t, d, "mixed", "bulk")

	// The bulk build cuts every posting from one backing array, so an
	// insert or a remove on key k must reallocate k's posting rather than
	// write into k+1's, leaving both neighbours pointer-identical.
	k := int64(-1)
	for c := int64(1); c < 1999 && k < 0; c++ {
		if d.ValueCount("port", Int(c-1)) > 0 && d.ValueCount("port", Int(c)) > 0 && d.ValueCount("port", Int(c+1)) > 0 {
			k = c
		}
	}
	if k < 0 {
		t.Fatal("no three consecutive port keys")
	}
	neighbours := func() [2][]*Entry {
		return [2][]*Entry{d.ValueEntries("port", Int(k-1)), d.ValueEntries("port", Int(k+1))}
	}
	before := neighbours()
	want := [2][]*Entry{slices.Clone(before[0]), slices.Clone(before[1])}
	untouched := func(op string) {
		t.Helper()
		for i, now := range neighbours() {
			if &now[0] != &before[i][0] || !slices.Equal(now, want[i]) {
				t.Fatalf("%s on key %d moved or changed the posting of key %d", op, k, k-1+2*int64(i))
			}
		}
	}
	e, err := d.AddChild(root, "cn=k", "host")
	if err != nil {
		t.Fatal(err)
	}
	e.AddValue("port", Int(k)) // the largest pre rank: appended to k's posting
	untouched("insert")
	d.ValueEntries("port", Int(k))[0].SetValues("port")
	untouched("remove")
	checkValueTree(t, d, "port", "bulk+insert+remove")

	// Incremental inserts after a bulk build must keep splitting cleanly.
	for i := 0; i < 2000; i++ {
		e, err := d.AddChild(root, fmt.Sprintf("cn=x%d", i), "host")
		if err != nil {
			t.Fatal(err)
		}
		e.AddValue("port", Int(int64(rng.Intn(2000))))
	}
	checkValueTree(t, d, "port", "bulk+incremental")
}

// TestValueTreeBuildAllocs is the bulk build's allocation ratchet: pairs,
// keys, postings and leaves each take one allocation whatever the size,
// so a build over n distinct keys allocates far less than once per key.
func TestValueTreeBuildAllocs(t *testing.T) {
	for _, n := range []int{1000, 8000, 32000} {
		d := New(nil)
		root, err := d.AddRoot("o=big", "org")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			e, err := d.AddChild(root, fmt.Sprintf("cn=e%d", i), "host")
			if err != nil {
				t.Fatal(err)
			}
			e.AddValue("name", String(fmt.Sprintf("n%06d", i*7919%n))) // distinct, not in pre-order
		}
		d.EnsureEncoded()
		allocs := testing.AllocsPerRun(3, func() { d.buildValueTree("name") })
		t.Logf("%d keys: %.0f allocations", n, allocs)
		if allocs/float64(n) > 0.1 {
			t.Errorf("%d keys: %.0f allocations, want at most 0.1 per key", n, allocs)
		}
	}
}

// FuzzValueIndex drives the index with an arbitrary op tape against the
// map-based reference model, the map-model fuzz target the CI fuzz-smoke
// job runs.
func FuzzValueIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 1, 2})
	f.Add([]byte{0, 0, 0, 40, 41, 42, 80, 81, 120, 200, 201, 202, 203})
	f.Fuzz(func(t *testing.T, tape []byte) {
		d := New(nil)
		d.EnsureEncoded()
		attrs := []string{"a", "b"}
		mkValue := func(b byte) Value {
			switch b % 3 {
			case 0:
				return Int(int64(b / 3 % 5))
			case 1:
				return String(fmt.Sprintf("s%d", b/3%5))
			default:
				return Tel(fmt.Sprintf("t%d", b/3%5))
			}
		}
		nextName := 0
		for i := 0; i+1 < len(tape); i += 2 {
			op, arg := tape[i], tape[i+1]
			alive := sortedEntries(d)
			pick := func() *Entry {
				if len(alive) == 0 {
					return nil
				}
				return alive[int(arg)%len(alive)]
			}
			switch op % 8 {
			case 0: // add root
				nextName++
				if _, err := d.AddRoot(fmt.Sprintf("o=r%d", nextName), "c"); err != nil {
					t.Fatal(err)
				}
			case 1: // add child
				if p := pick(); p != nil {
					nextName++
					if _, err := d.AddChild(p, fmt.Sprintf("cn=n%d", nextName), "c"); err != nil {
						t.Fatal(err)
					}
				}
			case 2: // add value
				if e := pick(); e != nil {
					e.AddValue(attrs[int(op)%len(attrs)], mkValue(arg))
				}
			case 3: // remove value
				if e := pick(); e != nil {
					e.RemoveValue(attrs[int(op)%len(attrs)], mkValue(arg))
				}
			case 4: // replace values (duplicates allowed)
				if e := pick(); e != nil {
					e.SetValues(attrs[int(op)%len(attrs)], mkValue(arg), mkValue(arg+1), mkValue(arg))
				}
			case 5: // delete subtree
				if e := pick(); e != nil {
					if _, err := d.DeleteSubtree(e); err != nil {
						t.Fatal(err)
					}
				}
			case 6: // graft
				if src := pick(); src != nil {
					_, _ = d.GraftSubtree(nil, src)
				}
			default: // graft that fails midway
				if p := pick(); p != nil {
					_, _ = d.GraftSubtree(p, malformedSource("c"))
				}
			}
			// Probe so the trees exist and the next iteration exercises
			// the incremental hooks.
			for _, a := range attrs {
				d.ValuePairs(a)
			}
		}
		for _, a := range attrs {
			checkValueTree(t, d, a, "final")
		}
	})
}
