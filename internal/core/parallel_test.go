package core

import (
	"fmt"
	"testing"

	"boundschema/internal/dirtree"
)

// witnessFixture builds a schema with two structure elements that each
// produce exactly ten witnesses, over a content-legal directory:
//   - a →ch b: ten childless a-roots violate it;
//   - a ⇥de c: ten a-roots with a c descendant violate it.
func witnessFixture(t *testing.T) (*Schema, *dirtree.Directory) {
	t.Helper()
	s := NewSchema()
	for _, cls := range []string{"a", "b", "c"} {
		if err := s.Classes.AddCore(cls, ClassTop); err != nil {
			t.Fatal(err)
		}
	}
	s.Structure.RequireRel("a", AxisChild, "b")
	if err := s.Structure.ForbidRel("a", AxisDesc, "c"); err != nil {
		t.Fatal(err)
	}
	d := dirtree.New(nil)
	for i := 0; i < 10; i++ {
		// Violates a →ch b (no b child).
		if _, err := d.AddRoot(fmt.Sprintf("r=bare%d", i), "a", ClassTop); err != nil {
			t.Fatal(err)
		}
		// Violates a ⇥de c (has a c descendant) but satisfies a →ch b.
		root, err := d.AddRoot(fmt.Sprintf("r=forb%d", i), "a", ClassTop)
		if err != nil {
			t.Fatal(err)
		}
		mid, err := d.AddChild(root, "x=b", "b", ClassTop)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.AddChild(mid, "x=c", "c", ClassTop); err != nil {
			t.Fatal(err)
		}
	}
	return s, d
}

// TestMaxWitnessesParallelMerge verifies the truncation semantics under
// the parallel merge: the cap is applied per element after the merge, the
// verdict is unaffected, and the report is byte-identical to the
// sequential reference at every worker count.
func TestMaxWitnessesParallelMerge(t *testing.T) {
	s, d := witnessFixture(t)

	for _, tc := range []struct {
		cap           int
		wantPerElem   int
		wantTruncated bool
	}{
		{cap: 0, wantPerElem: 10, wantTruncated: false},
		{cap: 1, wantPerElem: 1, wantTruncated: true},
		{cap: 3, wantPerElem: 3, wantTruncated: true},
		{cap: 9, wantPerElem: 9, wantTruncated: true},
		{cap: 10, wantPerElem: 10, wantTruncated: false},
		{cap: 11, wantPerElem: 10, wantTruncated: false},
		{cap: 100, wantPerElem: 10, wantTruncated: false},
	} {
		seq := NewChecker(s)
		seq.Concurrency = 1
		seq.MaxWitnesses = tc.cap
		ref := seq.Check(d)

		if ref.Legal() {
			t.Fatalf("cap=%d: fixture must be illegal", tc.cap)
		}
		if want := 2 * tc.wantPerElem; len(ref.Violations) != want {
			t.Fatalf("cap=%d: sequential reported %d violations, want %d", tc.cap, len(ref.Violations), want)
		}
		if ref.Truncated != tc.wantTruncated {
			t.Fatalf("cap=%d: sequential Truncated=%v, want %v", tc.cap, ref.Truncated, tc.wantTruncated)
		}

		for _, workers := range []int{2, 3, 4, 16, 64} {
			par := NewChecker(s)
			par.Concurrency = workers
			par.MaxWitnesses = tc.cap
			got := par.Check(d)
			if got.Legal() {
				t.Fatalf("cap=%d workers=%d: verdict flipped to legal", tc.cap, workers)
			}
			if got.Truncated != ref.Truncated {
				t.Fatalf("cap=%d workers=%d: Truncated=%v, want %v", tc.cap, workers, got.Truncated, ref.Truncated)
			}
			if got.String() != ref.String() {
				t.Fatalf("cap=%d workers=%d: report diverges from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s",
					tc.cap, workers, ref, got)
			}
		}
	}
}

// TestMaxWitnessesDoesNotCapContent pins the sequential semantics the
// parallel merge must reproduce: the witness cap applies to structure
// elements only, never to per-entry content violations.
func TestMaxWitnessesDoesNotCapContent(t *testing.T) {
	s := NewSchema()
	if err := s.Classes.AddCore("a", ClassTop); err != nil {
		t.Fatal(err)
	}
	d := dirtree.New(nil)
	for i := 0; i < 12; i++ {
		if _, err := d.AddRoot(fmt.Sprintf("r=%d", i), "a", "undeclared", ClassTop); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		c := NewChecker(s)
		c.Concurrency = workers
		c.MaxWitnesses = 2
		r := c.Check(d)
		if got := len(r.ByKind(violationUnknownClass)); got != 12 {
			t.Fatalf("workers=%d: %d unknown-class violations reported, want all 12", workers, got)
		}
		if r.Truncated {
			t.Fatalf("workers=%d: content violations must not set Truncated", workers)
		}
	}
}

// TestWorkersFor pins the Concurrency knob semantics: 1 is sequential,
// explicit values are taken literally even for tiny instances, and auto
// mode engages only past the amortization threshold.
func TestWorkersFor(t *testing.T) {
	c := NewChecker(NewSchema())
	if got := c.workersFor(10); got != 1 {
		t.Fatalf("auto on a tiny instance: %d workers, want 1", got)
	}
	if got := c.workersFor(autoParallelMin); got < 1 {
		t.Fatalf("auto past the threshold: %d workers", got)
	}
	c.Concurrency = 1
	if got := c.workersFor(1 << 20); got != 1 {
		t.Fatalf("Concurrency=1 must stay sequential, got %d", got)
	}
	c.Concurrency = 7
	if got := c.workersFor(3); got != 7 {
		t.Fatalf("explicit concurrency must be literal, got %d", got)
	}
}

func TestChunkBounds(t *testing.T) {
	for _, tc := range []struct{ n, chunks int }{
		{0, 4}, {1, 4}, {5, 8}, {100, 7}, {4096, 16},
	} {
		bounds := chunkBounds(tc.n, tc.chunks)
		next := 0
		for _, b := range bounds {
			if b[0] != next || b[1] <= b[0] {
				t.Fatalf("n=%d chunks=%d: bad bounds %v", tc.n, tc.chunks, bounds)
			}
			next = b[1]
		}
		if next != tc.n {
			t.Fatalf("n=%d chunks=%d: bounds cover %d entries: %v", tc.n, tc.chunks, next, bounds)
		}
	}
}
