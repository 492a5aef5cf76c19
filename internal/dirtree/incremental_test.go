package dirtree

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// The incremental patching in patch.go must be indistinguishable from the
// sealing walk: same pre/post/depth on every entry, same
// pre-order slice, same posting lists (including which class keys exist).
// referenceEncode computes all of that independently, walking the forest
// links only, without reading or writing any cached encoding state.
func referenceEncode(d *Directory) (order []*Entry, pre, post, depth map[*Entry]int, classes map[string][]*Entry) {
	pre = make(map[*Entry]int)
	post = make(map[*Entry]int)
	depth = make(map[*Entry]int)
	classes = make(map[string][]*Entry)
	rank := 0
	var walk func(e *Entry, dep int)
	walk = func(e *Entry, dep int) {
		pre[e] = rank
		depth[e] = dep
		rank++
		order = append(order, e)
		for _, c := range e.Classes() {
			classes[c] = append(classes[c], e)
		}
		for _, c := range e.children {
			walk(c, dep+1)
		}
		post[e] = rank - 1
	}
	for _, r := range d.roots {
		walk(r, 0)
	}
	return order, pre, post, depth, classes
}

func checkEncoding(t *testing.T, d *Directory, step string) {
	t.Helper()
	order, pre, post, depth, classes := referenceEncode(d)
	if len(order) != len(d.order) {
		t.Fatalf("%s: order length %d, reference %d", step, len(d.order), len(order))
	}
	for i, e := range order {
		if d.order[i] != e {
			t.Fatalf("%s: order[%d] = %v, reference %v", step, i, d.order[i], e)
		}
		if e.pre != pre[e] || e.post != post[e] || e.depth != depth[e] {
			t.Fatalf("%s: %s has (pre,post,depth)=(%d,%d,%d), reference (%d,%d,%d)",
				step, e.DN(), e.pre, e.post, e.depth, pre[e], post[e], depth[e])
		}
	}
	if len(classes) != len(d.classIndex) {
		t.Fatalf("%s: classIndex has %d classes %v, reference %d %v",
			step, len(d.classIndex), classKeys(d.classIndex), len(classes), classKeys(classes))
	}
	for c, want := range classes {
		got := d.classIndex[c]
		if len(got) != len(want) {
			t.Fatalf("%s: class %s posting list length %d, reference %d", step, c, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: class %s posting[%d] = %s, reference %s", step, c, i, got[i].DN(), want[i].DN())
			}
		}
	}
}

func classKeys(m map[string][]*Entry) []string {
	out := make([]string, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// sortedEntries returns the live entries ordered by ID, for deterministic
// random picks regardless of map iteration order.
func sortedEntries(d *Directory) []*Entry {
	out := make([]*Entry, 0, len(d.byDN))
	for _, e := range d.byDN {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// malformedSource fabricates a graft source that fails midway: its root
// copies fine, then its second child collides with its first (duplicate
// sibling RDNs), which no well-formed Directory produces. The children
// carry class c and a cn value, so a partial copy would touch the posting
// lists, the class table and the value index.
func malformedSource(c string) *Entry {
	cs := &ClassSet{Names: []string{c}}
	src := &Entry{rdn: "ou=bad", cls: cs}
	for i := 0; i < 2; i++ {
		src.children = append(src.children, &Entry{rdn: "ou=dup", parent: src, cls: cs,
			attrs: map[string][]Value{"cn": {String("dup")}}})
	}
	return src
}

// TestIncrementalEncodingDifferential drives a long randomized workload of
// every mutating operation on a sealed directory — adds, leaf and subtree
// deletes, grafts (including ones that fail midway), class membership
// changes and attribute writes — and asserts after every single op that
// the maintained encoding is identical to an independent walk, with no
// EnsureEncoded in between: a sealed directory has no fallback.
func TestIncrementalEncodingDifferential(t *testing.T) {
	classPool := []string{"person", "org", "device", "group", "printer"}
	rng := rand.New(rand.NewSource(7))
	d := New(nil)
	d.EnsureEncoded()
	nextName := 0
	failedMidway := 0

	for step := 0; step < 4000; step++ {
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
		case op < 18 || len(alive) == 0: // add root
			nextName++
			what = fmt.Sprintf("AddRoot r%d", nextName)
			if _, err := d.AddRoot(fmt.Sprintf("o=r%d", nextName), classPool[rng.Intn(len(classPool))]); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case op < 45: // add child
			p := pick()
			nextName++
			what = fmt.Sprintf("AddChild n%d under %s", nextName, p.DN())
			if _, err := d.AddChild(p, fmt.Sprintf("cn=n%d", nextName), classPool[rng.Intn(len(classPool))]); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case op < 55: // delete a leaf
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
			what = fmt.Sprintf("DeleteLeaf %s", leaf.DN())
			if err := d.DeleteLeaf(leaf); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case op < 63: // delete a whole subtree
			e := pick()
			what = fmt.Sprintf("DeleteSubtree %s", e.DN())
			if _, err := d.DeleteSubtree(e); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case op < 73: // graft a copy of one subtree elsewhere
			src := pick()
			var parent *Entry
			if rng.Intn(5) > 0 {
				parent = pick()
				// Grafting into the source subtree would copy a forest
				// that is growing under the walk; the API is not meant
				// for that, so route such picks to a root graft.
				for a := parent; a != nil; a = a.parent {
					if a == src {
						parent = nil
						break
					}
				}
			}
			dest := "forest root"
			if parent != nil {
				dest = parent.DN()
			}
			// Half the grafts land at a random sibling position (the
			// rollback of a deletion), the rest append.
			at := -1
			if rng.Intn(2) == 0 {
				at = rng.Intn(4)
			}
			what = fmt.Sprintf("GraftSubtreeAt %s -> %s @%d", src.DN(), dest, at)
			// Duplicate DNs make some grafts fail at the root; either
			// outcome must leave a current encoding.
			_, _ = d.GraftSubtreeAt(parent, src, at)
		case op < 76: // a graft that fails midway must unlink its copy
			parent := pick()
			what = fmt.Sprintf("malformed graft under %s", parent.DN())
			if _, err := d.GraftSubtree(parent, malformedSource(classPool[rng.Intn(len(classPool))])); err == nil {
				t.Fatalf("step %d: graft of a malformed source succeeded", step)
			}
			failedMidway++
		case op < 84: // class membership
			e := pick()
			c := classPool[rng.Intn(len(classPool))]
			if rng.Intn(2) == 0 {
				what = fmt.Sprintf("AddClass %s %s", e.DN(), c)
				e.AddClass(c)
			} else {
				what = fmt.Sprintf("RemoveClass %s %s", e.DN(), c)
				e.RemoveClass(c)
			}
		case op < 89: // replace the class set wholesale
			e := pick()
			n := 1 + rng.Intn(3)
			vs := make([]Value, n)
			for i := range vs {
				vs[i] = String(classPool[rng.Intn(len(classPool))])
			}
			what = fmt.Sprintf("SetValues objectClass %s", e.DN())
			e.SetValues(AttrObjectClass, vs...)
		default: // attribute values: must never touch the encoding
			e := pick()
			what = fmt.Sprintf("attr write %s", e.DN())
			switch rng.Intn(3) {
			case 0:
				e.AddValue("cn", String(fmt.Sprintf("v%d", rng.Intn(10))))
			case 1:
				e.SetValues("mail", String("a@b"), String("c@d"))
			default:
				e.RemoveValue("cn", String(fmt.Sprintf("v%d", rng.Intn(10))))
			}
		}
		checkEncoding(t, d, fmt.Sprintf("step %d (%s)", step, what))
	}
	if failedMidway == 0 {
		t.Fatal("the workload never grafted a malformed source")
	}
}

// dirState renders everything a failed graft must leave as it was: the
// forest, the DN map, the live class sets with their reference counts,
// the encoding with its posting lists, and the cn value index.
func dirState(d *Directory) string {
	var b strings.Builder
	b.WriteString(d.String())
	dns := make([]string, 0, len(d.byDN))
	for dn, e := range d.byDN {
		dns = append(dns, fmt.Sprintf("%s->%s", dn, e.DN()))
	}
	sort.Strings(dns)
	fmt.Fprintln(&b, dns)
	for _, s := range d.ClassSets() {
		if s != nil {
			fmt.Fprintf(&b, "set %d %v refs=%d\n", s.ID, s.Names, s.refs)
		}
	}
	for _, e := range d.order {
		fmt.Fprintf(&b, "%s pre=%d post=%d depth=%d\n", e.DN(), e.pre, e.post, e.depth)
	}
	for _, c := range classKeys(d.classIndex) {
		fmt.Fprintf(&b, "class %s %v\n", c, d.classIndex[c])
	}
	fmt.Fprintf(&b, "cn pairs=%d\n", d.ValuePairs("cn"))
	return b.String()
}

// TestGraftSubtreePatchFailure pins the failure contract: a graft that
// fails — at its root, or midway after linking part of its copy — leaves
// the sealed directory exactly as it was: entries, DN map, class sets,
// encoding and value index.
func TestGraftSubtreePatchFailure(t *testing.T) {
	d := New(nil)
	root, _ := d.AddRoot("o=r", "org")
	a, _ := d.AddChild(root, "ou=a", "org")
	if _, err := d.AddChild(a, "cn=x", "person"); err != nil {
		t.Fatal(err)
	}
	b, _ := d.AddChild(root, "ou=b", "org")
	if _, err := d.AddChild(b, "ou=a", "org"); err != nil {
		t.Fatal(err)
	}
	a.AddValue("cn", String("a"))
	d.EnsureEncoded()
	before := dirState(d)

	// "o=r" exists: the graft fails at its root, before any add.
	if _, err := d.GraftSubtree(nil, root); err == nil {
		t.Fatal("graft onto duplicate root DN should fail")
	}
	if got := dirState(d); got != before {
		t.Fatalf("clean-failure graft changed the directory:\n%s\nwant:\n%s", got, before)
	}
	checkEncoding(t, d, "after clean-failure graft")

	// A midway failure links the root and one child, with a class set
	// the directory has not seen, before the duplicate sibling refuses.
	if _, err := d.GraftSubtree(root, malformedSource("unit")); err == nil {
		t.Fatal("graft should fail on the duplicate sibling RDN")
	}
	if got := dirState(d); got != before {
		t.Fatalf("partial graft changed the directory:\n%s\nwant:\n%s", got, before)
	}
	checkEncoding(t, d, "after partial-failure graft")
}
