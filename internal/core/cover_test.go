package core_test

import (
	"math/rand"
	"testing"

	"boundschema/internal/core"
	"boundschema/internal/workload"
)

// TestCoverOracle checks Cover against the legality checker. Cut down to
// its cover, a consistent schema keeps its legal instances (Theorem 5.1),
// so the witness Materialize builds for the cut schema passes a full
// check against the whole schema; a cover that dropped an element it does
// not imply lets the witness violate that element. Each dropped element
// carries a derivation, and no kept element is implied by the others.
func TestCoverOracle(t *testing.T) {
	schemas := []*core.Schema{workload.WhitePagesSchema(), workload.NetPolicySchema()}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schemas = append(schemas, workload.RandomSchema(rng, workload.SchemaConfig{
			Classes:         rng.Intn(6) + 2,
			Required:        rng.Intn(6),
			Forbidden:       rng.Intn(4),
			RequiredClasses: rng.Intn(3) + 1,
			Deep:            seed%2 == 0,
		}))
	}
	consistent, dropped := 0, 0
	for i, s := range schemas {
		if !s.Consistent() {
			continue
		}
		consistent++
		kept, implied := core.Cover(s)
		dropped += len(implied)
		for _, el := range implied {
			if el.Derivation == "" {
				t.Errorf("schema %d: %s dropped without a derivation", i, el.Element.ElementString())
			}
		}
		d, err := core.Materialize(cut(s, kept))
		if err != nil {
			t.Fatalf("schema %d: the cover of a consistent schema has no witness: %v", i, err)
		}
		if r := core.NewChecker(s).Check(d); !r.Legal() {
			t.Fatalf("schema %d: the witness of its cover %v violates the schema:\n%s", i, kept, r)
		}
		for k, el := range kept {
			rest := append(append([]core.Element(nil), kept[:k]...), kept[k+1:]...)
			if core.Implies(cut(s, rest), el) {
				t.Errorf("schema %d: kept %s is implied by the rest of the cover", i, el.ElementString())
			}
		}
	}
	t.Logf("%d schemas, %d consistent, %d elements dropped", len(schemas), consistent, dropped)
	if dropped == 0 {
		t.Fatal("no schema had a redundant element; the oracle tested nothing")
	}
}

// cut returns a copy of s whose structure schema is exactly els.
func cut(s *core.Schema, els []core.Element) *core.Schema {
	out := s.Clone()
	out.Structure = core.NewSchema().Structure
	for _, el := range els {
		switch e := el.(type) {
		case core.RequiredClass:
			out.Structure.RequireClass(e.Class)
		case core.RequiredRel:
			out.Structure.RequireRel(e.Source, e.Axis, e.Target)
		case core.ForbiddenRel:
			if err := out.Structure.ForbidRel(e.Upper, e.Axis, e.Lower); err != nil {
				panic(err)
			}
		}
	}
	return out
}
