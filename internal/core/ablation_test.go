package core

import (
	"testing"
)

// extensionSchemas are inconsistent schemas whose detection needs the
// implementation's extension rules (the DPD composition, self/above/below
// case analysis, chain passes); the pairwise Figure 6/7 reconstruction
// alone misses them. Each was found by the randomized stress harness and
// verified inconsistent by hand (see the stress test and DESIGN.md).
func extensionSchemas(t testing.TB) map[string]*Schema {
	out := make(map[string]*Schema)
	build := func(name string, f func(s *Schema)) {
		s := NewSchema()
		f(s)
		out[name] = s
	}
	mustCore := func(s *Schema, c, super string) {
		if err := s.Classes.AddCore(c, super); err != nil {
			t.Fatal(err)
		}
	}
	mustForbid := func(s *Schema, u string, ax Axis, l string) {
		if err := s.Structure.ForbidRel(u, ax, l); err != nil {
			t.Fatal(err)
		}
	}

	build("SI,SD: child's parent class conflicts with source", func(s *Schema) {
		for _, c := range []string{"k1", "k3", "k4"} {
			mustCore(s, c, ClassTop)
		}
		s.Structure.RequireClass("k4")
		s.Structure.RequireRel("k4", AxisChild, "k3")
		s.Structure.RequireRel("k3", AxisParent, "k1")
	})

	build("DPD: descendant-parent-child composition cycle", func(s *Schema) {
		mustCore(s, "k0", ClassTop)
		mustCore(s, "k1", "k0")
		mustCore(s, "k2", ClassTop)
		s.Structure.RequireClass("k1")
		s.Structure.RequireRel("k0", AxisParent, "k2")
		s.Structure.RequireRel("k1", AxisDesc, "k0")
		s.Structure.RequireRel("k2", AxisChild, "k1")
		mustForbid(s, "k1", AxisChild, "k0")
	})

	build("SW: sandwich between ancestor and descendant", func(s *Schema) {
		for _, c := range []string{"k0", "k1", "k2"} {
			mustCore(s, c, ClassTop)
		}
		s.Structure.RequireClass("k2")
		s.Structure.RequireRel("k2", AxisDesc, "k0")
		s.Structure.RequireRel("k2", AxisAnc, "k1")
		mustForbid(s, "k1", AxisDesc, "k0")
	})

	build("above: an-regress through child requirement", func(s *Schema) {
		for _, c := range []string{"k0", "k1", "k2"} {
			mustCore(s, c, ClassTop)
		}
		s.Structure.RequireClass("k2")
		s.Structure.RequireRel("k0", AxisAnc, "k2")
		s.Structure.RequireRel("k1", AxisAnc, "k0")
		s.Structure.RequireRel("k2", AxisChild, "k1")
		mustForbid(s, "k1", AxisChild, "k0")
	})

	build("below: de-pa regress with subclassing", func(s *Schema) {
		mustCore(s, "k0", ClassTop)
		mustCore(s, "k1", ClassTop)
		mustCore(s, "k2", "k1")
		s.Structure.RequireClass("k2")
		s.Structure.RequireRel("k0", AxisParent, "k2")
		s.Structure.RequireRel("k1", AxisDesc, "k0")
		s.Structure.RequireRel("k2", AxisDesc, "k1")
	})

	build("PCH: ancestor cannot fit the forced parent chain", func(s *Schema) {
		mustCore(s, "k0", ClassTop)
		mustCore(s, "k1", "k0")
		mustCore(s, "k2", "k0")
		mustCore(s, "k3", "k1")
		mustCore(s, "k6", "k0")
		mustCore(s, "k8", "k6")
		s.Structure.RequireClass("k8")
		s.Structure.RequireRel("k6", AxisParent, "k3")
		s.Structure.RequireRel("k3", AxisParent, "k2")
		s.Structure.RequireRel("k8", AxisAnc, "k6")
		mustForbid(s, "k0", AxisDesc, "k2")
	})

	build("CHAIN: three-way forced-order cycle", func(s *Schema) {
		for _, c := range []string{"c", "x", "y", "z"} {
			mustCore(s, c, ClassTop)
		}
		s.Structure.RequireClass("c")
		for _, t := range []string{"x", "y", "z"} {
			s.Structure.RequireRel("c", AxisAnc, t)
		}
		mustForbid(s, "x", AxisDesc, "y")
		mustForbid(s, "y", AxisDesc, "z")
		mustForbid(s, "z", AxisDesc, "x")
	})

	return out
}

// TestExtensionRulesCatchWhatPairwiseMisses: every extension schema is
// inconsistent under the full system but slips past the pairwise-only
// reconstruction — the ablation evidence for DESIGN.md.
func TestExtensionRulesCatchWhatPairwiseMisses(t *testing.T) {
	for name, s := range extensionSchemas(t) {
		t.Run(name, func(t *testing.T) {
			full := InferWith(s, InferOptions{})
			if !full.Inconsistent() {
				t.Fatalf("full system should detect the inconsistency")
			}
			pairwise := InferWith(s, InferOptions{PairwiseOnly: true})
			if pairwise.Inconsistent() {
				t.Fatalf("pairwise system unexpectedly detects it — the case no longer isolates the extension")
			}
			// The chase must agree with the full verdict: no witness.
			if _, err := Materialize(s); err == nil {
				t.Fatalf("Materialize built a witness for an inconsistent schema")
			}
		})
	}
}

// TestPairwiseCatchesPaperTaxonomy: the paper's own narrative cases fall
// to the pairwise rules alone, confirming the reconstruction covers the
// published system.
func TestPairwiseCatchesPaperTaxonomy(t *testing.T) {
	cases := map[string]*Schema{}

	s1 := flatSchema(t, "c1", "c2")
	s1.Structure.RequireClass("c1")
	s1.Structure.RequireRel("c1", AxisChild, "c2")
	s1.Structure.RequireRel("c2", AxisDesc, "c1")
	cases["5.1 cycle"] = s1

	s2 := flatSchema(t, "c1", "c2")
	s2.Structure.RequireClass("c1")
	s2.Structure.RequireRel("c1", AxisDesc, "c2")
	if err := s2.Structure.ForbidRel("c1", AxisDesc, "c2"); err != nil {
		t.Fatal(err)
	}
	cases["5.2 contradiction"] = s2

	s3 := NewSchema()
	if err := s3.Classes.AddCore("c3", ClassTop); err != nil {
		t.Fatal(err)
	}
	if err := s3.Classes.AddCore("c2", "c3"); err != nil {
		t.Fatal(err)
	}
	if err := s3.Classes.AddCore("c1", ClassTop); err != nil {
		t.Fatal(err)
	}
	s3.Structure.RequireClass("c1")
	s3.Structure.RequireRel("c1", AxisChild, "c2")
	if err := s3.Structure.ForbidRel("c1", AxisChild, "c3"); err != nil {
		t.Fatal(err)
	}
	cases["5.2 hierarchy contradiction"] = s3

	for name, s := range cases {
		if !InferWith(s, InferOptions{PairwiseOnly: true}).Inconsistent() {
			t.Errorf("%s: pairwise rules should suffice", name)
		}
	}
}

// TestPairwiseIsSound: the restricted system never flags a consistent
// schema (it derives strictly fewer facts).
func TestPairwiseIsSound(t *testing.T) {
	schemas := []*Schema{whitePagesSchema(t)}
	for _, s := range schemas {
		if InferWith(s, InferOptions{PairwiseOnly: true}).Inconsistent() {
			t.Errorf("pairwise system flagged a consistent schema")
		}
	}
}
