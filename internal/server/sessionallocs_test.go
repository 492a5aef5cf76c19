package server

import (
	"io"
	"math/rand"
	"testing"

	"boundschema/internal/proto"
	"boundschema/internal/workload"
)

// TestSessionAllocs is the session half of the allocation ratchet:
// allocations per protocol exchange through session.handle, counted
// rather than timed, on a 20k-entry whitepages corpus with replies
// written to io.Discard. The ceilings are the values measured (go1.24,
// linux/amd64) when the ratchet was set; a change to the wire codec or
// the read paths may lower them, never raise them.
func TestSessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s := workload.WhitePagesSchema()
	d := workload.Corpus(s, rand.New(rand.NewSource(1)), 20000)
	srv, err := New(s, "whitepages", d)
	if err != nil {
		t.Fatal(err)
	}
	se := &session{srv: srv, w: proto.NewWriter(io.Discard)}
	t.Cleanup(se.abort)

	person := d.ClassEntries("person")[0].DN()
	unit := d.ClassEntries("orgUnit")[10].DN()
	for _, tc := range []struct {
		name  string
		lines []string
		term  string // every reply's terminator
		max   float64
	}{
		{"GET hit", []string{"GET " + person}, "OK", 9},
		{"GET miss", []string{"GET uid=ghost,o=org0"}, "ERR", 2},
		{"SEARCH name miss", []string{"SEARCH (name=nobody)"}, "OK", 3},
		{"SEARCH mail miss", []string{"SEARCH (mail=nobody@example.org)"}, "OK", 5},
		{"COUNT person", []string{"COUNT person"}, "OK", 2},
		{"ADD+DELETE pair", []string{
			"BEGIN",
			"ADD uid=pair," + unit,
			"objectClass: person",
			"objectClass: top",
			"name: pair probe",
			"COMMIT",
			"BEGIN",
			"DELETE uid=pair," + unit,
			"COMMIT",
		}, "OK", 57},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() {
				for _, l := range tc.lines {
					se.w.Term = ""
					se.handle(l)
					if se.w.Term != "" && se.w.Term != tc.term {
						t.Fatalf("%q answered %s, want %s", l, se.w.Term, tc.term)
					}
				}
				se.w.Flush()
			}
			got := testing.AllocsPerRun(20, run)
			t.Logf("%.0f allocations per run", got)
			if got > tc.max {
				t.Errorf("%.0f allocations per run, ratchet is %.0f", got, tc.max)
			}
		})
	}
}
