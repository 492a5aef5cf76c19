package core

import (
	"sync"
	"testing"
)

// TestCheckerOnTiming verifies the observability hook: every top-level
// Check and Legal reports the worker count the Concurrency knob resolved
// to, the instance size, and the verdict.
func TestCheckerOnTiming(t *testing.T) {
	s := whitePagesSchema(t)
	d := whitePagesInstance(t, s)

	var mu sync.Mutex
	var timings []CheckTiming
	c := NewChecker(s)
	c.OnTiming = func(tm CheckTiming) {
		mu.Lock()
		timings = append(timings, tm)
		mu.Unlock()
	}

	c.Concurrency = 1
	if r := c.Check(d); !r.Legal() {
		t.Fatalf("instance illegal:\n%s", r)
	}
	c.Concurrency = 4
	if !c.Legal(d) {
		t.Fatalf("Legal = false on a legal instance")
	}

	if len(timings) != 2 {
		t.Fatalf("timings = %d, want 2", len(timings))
	}
	seq, par := timings[0], timings[1]
	if seq.Workers != 1 {
		t.Errorf("one-worker Check reported workers=%d", seq.Workers)
	}
	if par.Workers != 4 {
		t.Errorf("four-worker Legal reported workers=%d", par.Workers)
	}
	for i, tm := range timings {
		if !tm.Legal {
			t.Errorf("timing %d: verdict legal=false", i)
		}
		if tm.Entries != d.Len() {
			t.Errorf("timing %d: entries = %d, want %d", i, tm.Entries, d.Len())
		}
		if tm.Duration < 0 {
			t.Errorf("timing %d: negative duration", i)
		}
	}

	// An illegal instance reports Legal=false through the hook.
	timings = nil
	if _, err := d.AddRoot("ou=dangling", "orgUnit", "orgGroup", "top"); err != nil {
		t.Fatal(err)
	}
	if c.Legal(d) {
		t.Fatalf("Legal = true on an illegal instance")
	}
	if len(timings) != 1 || timings[0].Legal {
		t.Errorf("illegal verdict not reported: %+v", timings)
	}
}
