package txn

import (
	"errors"
	"strings"
	"testing"

	"boundschema/internal/core"
	"boundschema/internal/workload"
)

// TestApplyWithUndo exercises the revert handle behind the server's
// durable-commit path: a successfully applied transaction must be fully
// reversible, sibling order included, and the applier must keep working
// after an undo.
func TestApplyWithUndo(t *testing.T) {
	s := workload.WhitePagesSchema()
	d := workload.WhitePagesInstance(s)
	a := NewApplier(s)
	before := d.String()

	tx := &Transaction{}
	tx.Add("ou=networking,ou=attLabs,o=att", []string{"orgUnit", "orgGroup", "top"}, nil)
	tx.Add("uid=pat,ou=networking,ou=attLabs,o=att", []string{"person", "top"}, person("pat"))
	tx.Delete("uid=armstrong,ou=attLabs,o=att")
	tx.Move("ou=databases,ou=attLabs,o=att", "o=att")

	r, undo, err := a.ApplyWithUndo(d, tx)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Legal() {
		t.Fatalf("legal transaction rejected:\n%s", r)
	}
	if undo == nil {
		t.Fatal("no undo handle on a successful apply")
	}
	if d.ByDN("uid=pat,ou=networking,ou=attLabs,o=att") == nil {
		t.Fatalf("insert not applied")
	}

	if err := undo(); err != nil {
		t.Fatalf("undo: %v", err)
	}
	if got := d.String(); got != before {
		t.Errorf("undo did not restore the instance:\n--- before\n%s\n--- after undo\n%s", before, got)
	}
	if rep := core.NewChecker(s).Check(d); !rep.Legal() {
		t.Fatalf("instance illegal after undo:\n%s", rep)
	}

	// The posting lists were patched back by undo: a deletion that would
	// remove the last person must still be caught incrementally.
	del := &Transaction{}
	del.Delete("uid=armstrong,ou=attLabs,o=att")
	del.Delete("uid=laks,ou=databases,ou=attLabs,o=att")
	del.Delete("uid=suciu,ou=databases,ou=attLabs,o=att")
	if r, err := a.Apply(d, del); err != nil {
		t.Fatal(err)
	} else if r.Legal() {
		t.Fatalf("deleting every person accepted after undo")
	}

	// And a fresh legal transaction still applies cleanly after the undo.
	again := &Transaction{}
	again.Add("uid=redo,ou=attLabs,o=att", []string{"person", "top"}, person("redo"))
	if r, err := a.Apply(d, again); err != nil || !r.Legal() {
		t.Fatalf("apply after undo: err=%v report=%s", err, r)
	}

	// A rejected transaction returns no undo handle.
	bad := &Transaction{}
	bad.Add("ou=empty,ou=attLabs,o=att", []string{"orgUnit", "orgGroup", "top"}, nil)
	r, undo, err = a.ApplyWithUndo(d, bad)
	if err != nil {
		t.Fatal(err)
	}
	if r.Legal() {
		t.Fatalf("empty org unit accepted")
	}
	if undo != nil {
		t.Errorf("undo handle returned for a rejected transaction")
	}
}

// TestComposeUndo exercises the batch-rollback primitive behind group
// commit: several applied transactions must unwind newest-first back to
// the exact pre-batch state, and a member's failure must surface with
// its position.
func TestComposeUndo(t *testing.T) {
	s := workload.WhitePagesSchema()
	d := workload.WhitePagesInstance(s)
	a := NewApplier(s)
	before := d.String()

	// Three dependent transactions: later ones build on earlier ones, so
	// any unwind order other than newest-first would fail.
	var undos []func() error
	tx1 := &Transaction{}
	tx1.Add("ou=batch,ou=attLabs,o=att", []string{"orgUnit", "orgGroup", "top"}, nil)
	tx1.Add("uid=b1,ou=batch,ou=attLabs,o=att", []string{"person", "top"}, person("b1"))
	tx2 := &Transaction{}
	tx2.Add("uid=b2,ou=batch,ou=attLabs,o=att", []string{"person", "top"}, person("b2"))
	tx3 := &Transaction{}
	tx3.Move("ou=batch,ou=attLabs,o=att", "o=att")
	for i, tx := range []*Transaction{tx1, tx2, tx3} {
		r, undo, err := a.ApplyWithUndo(d, tx)
		if err != nil || !r.Legal() {
			t.Fatalf("member %d: err=%v report=%s", i, err, r)
		}
		undos = append(undos, undo)
	}

	if err := ComposeUndo(undos...)(); err != nil {
		t.Fatalf("composed undo: %v", err)
	}
	if got := d.String(); got != before {
		t.Errorf("composed undo did not restore the instance:\n--- before\n%s\n--- after\n%s", before, got)
	}
	if rep := core.NewChecker(s).Check(d); !rep.Legal() {
		t.Fatalf("instance illegal after composed undo:\n%s", rep)
	}

	// nil members (transactions with nothing to undo) are skipped.
	if err := ComposeUndo(nil, nil)(); err != nil {
		t.Errorf("composed undo over nils: %v", err)
	}

	// A failing member stops the unwind and reports its index.
	calls := []int{}
	boom := ComposeUndo(
		func() error { calls = append(calls, 0); return nil },
		func() error { calls = append(calls, 1); return errBoom },
		func() error { calls = append(calls, 2); return nil },
	)
	err := boom()
	if err == nil || !strings.Contains(err.Error(), "member 1") {
		t.Errorf("composed undo failure = %v, want member 1 reported", err)
	}
	// Newest-first: member 2 ran, member 1 failed, member 0 never ran.
	if len(calls) != 2 || calls[0] != 2 || calls[1] != 1 {
		t.Errorf("unwind order = %v, want [2 1]", calls)
	}
}

var errBoom = errors.New("boom")
