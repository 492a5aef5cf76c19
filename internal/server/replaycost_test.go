package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"boundschema/internal/dirtree"
	"boundschema/internal/repl"
	"boundschema/internal/txn"
	"boundschema/internal/workload"
)

// The replay-cost ratchet: allocations per replayed journal record,
// counted rather than timed, over a cold OpenJournal. Recovery Δ-checks
// every record, and what a record costs must depend on its Δ alone — not
// on how long the journal is, nor on |D|. A per-record full re-encode
// (the superlinear replay this ratchet guards against) breaks the |D|
// axis: the class posting lists regrow in log|D| steps per class.
const (
	// replayAllocsPerCommit caps mallocs per replayed commit: 81–85
	// measured (go1.24, linux/amd64) over legalJournal's transactions,
	// 79–83 when replay skipped the Δ-checks; a per-record re-encode
	// measures 200–260, a per-record full Check 230–390.
	replayAllocsPerCommit = 90
	// replaySpread bounds how far the per-commit figure may move across
	// journal lengths and instance sizes.
	replaySpread = 8
)

// legalJournal builds a whitepages corpus of about n entries and the
// verbatim journal segments of commits legal transactions over it, in
// wp_write's shape: 45% ADD person, 5% ADD unit+person, 25% MOVE a
// person, 25% DELETE a person. Candidates the applier refuses are
// dropped; the corpus itself is left untouched.
func legalJournal(t *testing.T, n, commits int) (*dirtree.Directory, [][]byte) {
	t.Helper()
	s := workload.WhitePagesSchema()
	d := workload.Corpus(s, rand.New(rand.NewSource(1)), n)
	work := d.Clone()
	applier := txn.NewApplier(s)
	rng := rand.New(rand.NewSource(2))
	pick := func(class string) *dirtree.Entry {
		es := work.ClassEntries(class)
		return es[rng.Intn(len(es))]
	}
	attrs := map[string][]dirtree.Value{"name": {dirtree.String("replay")}}
	var segs [][]byte
	for i := 0; len(segs) < commits; i++ {
		tx := &txn.Transaction{}
		switch r := rng.Intn(100); {
		case r < 45:
			tx.Add(fmt.Sprintf("uid=r%d,%s", i, pick("orgUnit").DN()), []string{"person", "top"}, attrs)
		case r < 50:
			unit := fmt.Sprintf("ou=r%d,%s", i, pick("orgGroup").DN())
			tx.Add(unit, []string{"orgUnit", "orgGroup", "top"}, nil)
			tx.Add("uid=r"+fmt.Sprint(i)+","+unit, []string{"person", "top"}, attrs)
		case r < 75:
			tx.Move(pick("person").DN(), pick("orgUnit").DN())
		default:
			tx.Delete(pick("person").DN())
		}
		if r, err := applier.Apply(work, tx); err != nil || !r.Legal() {
			continue
		}
		var payload bytes.Buffer
		if err := tx.WriteChanges(&payload); err != nil {
			t.Fatal(err)
		}
		segs = append(segs, repl.RawSegment(uint64(len(segs)+1), payload.Bytes(), 1))
	}
	return d, segs
}

// replayAllocs cold-starts a server over base and segs and returns the
// mallocs its OpenJournal made per replayed commit.
func replayAllocs(t *testing.T, base *dirtree.Directory, segs [][]byte) float64 {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.ldif")
	if err := os.WriteFile(path, bytes.Join(segs, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	s := workload.WhitePagesSchema()
	srv, err := New(s, "whitepages", base.Clone())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = srv.OpenJournal(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := commitSeqOf(srv); got != uint64(len(segs)) {
		t.Fatalf("replayed through seq=%d, want %d", got, len(segs))
	}
	return float64(after.Mallocs-before.Mallocs) / float64(len(segs))
}

func TestReplayCostIsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 40k-entry corpus")
	}
	lo, hi := math.Inf(1), 0.0
	for _, n := range []int{5000, 40000} {
		base, segs := legalJournal(t, n, 2000)
		for _, commits := range []int{200, 2000} {
			per := replayAllocs(t, base, segs[:commits])
			t.Logf("|D|=%d, %d commits: %.1f mallocs per replayed commit", base.Len(), commits, per)
			if per > replayAllocsPerCommit {
				t.Errorf("|D|=%d, %d commits: %.1f mallocs per replayed commit, ratchet is %d",
					base.Len(), commits, per, replayAllocsPerCommit)
			}
			lo, hi = min(lo, per), max(hi, per)
		}
	}
	if hi-lo > replaySpread {
		t.Errorf("mallocs per replayed commit range %.1f–%.1f across journal lengths and |D|; replay cost is not flat", lo, hi)
	}
}
