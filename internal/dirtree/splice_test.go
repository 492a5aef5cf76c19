package dirtree

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// spliceForest builds and seals a synthetic forest of about n entries:
// one root, groups of 99 person leaves under it. It stands in for the
// whitepages corpus, which dirtree cannot import.
func spliceForest(tb testing.TB, n int) (*Directory, []*Entry) {
	tb.Helper()
	d := New(nil)
	root, err := d.AddRoot("o=bench", "org")
	if err != nil {
		tb.Fatal(err)
	}
	var groups []*Entry
	for g := 0; d.Len() < n; g++ {
		ou, err := d.AddChild(root, fmt.Sprintf("ou=g%d", g), "orgGroup")
		if err != nil {
			tb.Fatal(err)
		}
		groups = append(groups, ou)
		for j := 0; j < 99 && d.Len() < n; j++ {
			if _, err := d.AddChild(ou, fmt.Sprintf("cn=p%d", j), "person", "top"); err != nil {
				tb.Fatal(err)
			}
		}
	}
	d.EnsureEncoded()
	return d, groups
}

// splicePos is a group whose subtree ends near the head, in the middle
// or at the tail of the pre-order.
type splicePos struct {
	name  string
	group *Entry
}

func splicePositions(groups []*Entry) []splicePos {
	return []splicePos{{"head", groups[0]}, {"mid", groups[len(groups)/2]}, {"tail", groups[len(groups)-1]}}
}

// TestRelabelsPerInsertAreLogarithmic counts, with no clock, the labels a
// window relabel rewrites: 10k one-entry inserts under one parent at the
// head, the middle and the tail of a sealed 100k directory must each
// rewrite at most relabelC·log₂|D| labels per insert, amortised. Every
// insert lands in the gap the previous one narrowed, the worst case for
// midpoint labeling.
func TestRelabelsPerInsertAreLogarithmic(t *testing.T) {
	const n, inserts = 100_000, 10_000
	// relabelC pins the measured worst position: head 0.487, mid 0.454,
	// tail 0.483 labels per insert per log₂|D|.
	const relabelC = 0.49
	d, groups := spliceForest(t, n)
	for _, pos := range splicePositions(groups) {
		before := d.relabels
		for i := 0; i < inserts; i++ {
			if _, err := d.AddChild(pos.group, fmt.Sprintf("cn=x%d", i), "person"); err != nil {
				t.Fatal(err)
			}
		}
		per := float64(d.relabels-before) / inserts
		limit := relabelC * math.Log2(float64(d.Len()))
		t.Logf("%s: %.2f labels rewritten per insert, c = %.3f", pos.name, per, per/math.Log2(float64(d.Len())))
		if per > limit {
			t.Errorf("%s: %.2f labels rewritten per insert, want <= %.2f", pos.name, per, limit)
		}
	}
	checkEncoding(t, d, "after the counted inserts")
}

// BenchmarkSplice times a one-entry splice by where it lands in a sealed
// 100k directory: AddChild of a leaf under a group whose subtree ends at
// the head, the middle or the tail of the pre-order, and the DeleteLeaf
// of that leaf. Each iteration does both, so the directory stays the
// same; ns/op is the named operation's time alone.
func BenchmarkSplice(b *testing.B) {
	d, groups := spliceForest(b, 100_000)
	for _, pos := range splicePositions(groups) {
		for _, op := range []string{"add", "delete"} {
			b.Run(pos.name+"/"+op, func(b *testing.B) {
				var timed time.Duration
				for i := 0; i < b.N; i++ {
					start := time.Now()
					e, err := d.AddChild(pos.group, "cn=splice", "person")
					if err != nil {
						b.Fatal(err)
					}
					if op == "add" {
						timed += time.Since(start)
					}
					start = time.Now()
					if err := d.DeleteLeaf(e); err != nil {
						b.Fatal(err)
					}
					if op == "delete" {
						timed += time.Since(start)
					}
				}
				b.ReportMetric(float64(timed.Nanoseconds())/float64(b.N), "ns/op")
			})
		}
	}
}
