package workload

import (
	"boundschema/internal/core"
)

// HardCase is an inconsistent schema whose detection requires one of the
// implementation's extension rule groups (core's inferOptions): the
// pairwise Figure 6/7 reconstruction alone misses it. These were found by
// the randomized stress harness and verified inconsistent by hand; they
// drive the ablation experiment (E12) and regression tests.
type HardCase struct {
	Name   string
	Schema *core.Schema
	// Rule names the extension rule the case was built around.
	Rule string
}

// HardCases returns the extension-requiring inconsistent schemas.
func HardCases() []HardCase {
	var out []HardCase
	add := func(name, rule string, build func(s *core.Schema) error) {
		s := core.NewSchema()
		if err := build(s); err != nil {
			panic(err)
		}
		out = append(out, HardCase{Name: name, Schema: s, Rule: rule})
	}
	cores := func(s *core.Schema, pairs ...[2]string) error {
		for _, p := range pairs {
			if err := s.Classes.AddCore(p[0], p[1]); err != nil {
				return err
			}
		}
		return nil
	}

	add("SI,SD: required child's parent class conflicts", "SD", func(s *core.Schema) error {
		if err := cores(s, [2]string{"k1", core.ClassTop}, [2]string{"k3", core.ClassTop}, [2]string{"k4", core.ClassTop}); err != nil {
			return err
		}
		s.Structure.RequireClass("k4")
		s.Structure.RequireRel("k4", core.AxisChild, "k3")
		s.Structure.RequireRel("k3", core.AxisParent, "k1")
		return nil
	})

	add("DPD: de-pa-ch composition closes a cycle", "DPD", func(s *core.Schema) error {
		if err := cores(s, [2]string{"k0", core.ClassTop}, [2]string{"k1", "k0"}, [2]string{"k2", core.ClassTop}); err != nil {
			return err
		}
		s.Structure.RequireClass("k1")
		s.Structure.RequireRel("k0", core.AxisParent, "k2")
		s.Structure.RequireRel("k1", core.AxisDesc, "k0")
		s.Structure.RequireRel("k2", core.AxisChild, "k1")
		return s.Structure.ForbidRel("k1", core.AxisChild, "k0")
	})

	add("SW: sandwich between ancestor and descendant", "SW", func(s *core.Schema) error {
		if err := cores(s, [2]string{"k0", core.ClassTop}, [2]string{"k1", core.ClassTop}, [2]string{"k2", core.ClassTop}); err != nil {
			return err
		}
		s.Structure.RequireClass("k2")
		s.Structure.RequireRel("k2", core.AxisDesc, "k0")
		s.Structure.RequireRel("k2", core.AxisAnc, "k1")
		return s.Structure.ForbidRel("k1", core.AxisDesc, "k0")
	})

	add("above: ancestor regress through a child requirement", "AO1", func(s *core.Schema) error {
		if err := cores(s, [2]string{"k0", core.ClassTop}, [2]string{"k1", core.ClassTop}, [2]string{"k2", core.ClassTop}); err != nil {
			return err
		}
		s.Structure.RequireClass("k2")
		s.Structure.RequireRel("k0", core.AxisAnc, "k2")
		s.Structure.RequireRel("k1", core.AxisAnc, "k0")
		s.Structure.RequireRel("k2", core.AxisChild, "k1")
		return s.Structure.ForbidRel("k1", core.AxisChild, "k0")
	})

	add("below: de-pa regress under subclassing", "BO2", func(s *core.Schema) error {
		if err := cores(s, [2]string{"k0", core.ClassTop}, [2]string{"k1", core.ClassTop}, [2]string{"k2", "k1"}); err != nil {
			return err
		}
		s.Structure.RequireClass("k2")
		s.Structure.RequireRel("k0", core.AxisParent, "k2")
		s.Structure.RequireRel("k1", core.AxisDesc, "k0")
		s.Structure.RequireRel("k2", core.AxisDesc, "k1")
		return nil
	})

	add("PCH: ancestor cannot fit the forced parent chain", "PCH", func(s *core.Schema) error {
		if err := cores(s,
			[2]string{"k0", core.ClassTop}, [2]string{"k1", "k0"}, [2]string{"k2", "k0"},
			[2]string{"k3", "k1"}, [2]string{"k6", "k0"}, [2]string{"k8", "k6"}); err != nil {
			return err
		}
		s.Structure.RequireClass("k8")
		s.Structure.RequireRel("k6", core.AxisParent, "k3")
		s.Structure.RequireRel("k3", core.AxisParent, "k2")
		s.Structure.RequireRel("k8", core.AxisAnc, "k6")
		return s.Structure.ForbidRel("k0", core.AxisDesc, "k2")
	})

	add("PCH2: placed ancestor drags its own parent chain", "PCH", func(s *core.Schema) error {
		if err := cores(s, [2]string{"k0", core.ClassTop}, [2]string{"k1", "k0"}, [2]string{"k2", core.ClassTop}); err != nil {
			return err
		}
		s.Structure.RequireClass("k1")
		s.Structure.RequireRel("k0", core.AxisParent, "k2")
		s.Structure.RequireRel("k1", core.AxisAnc, "k0")
		if err := s.Structure.ForbidRel("k1", core.AxisDesc, "k2"); err != nil {
			return err
		}
		return s.Structure.ForbidRel("k2", core.AxisDesc, "k2")
	})

	add("CHAIN: three-way forced-order cycle", "CHAIN", func(s *core.Schema) error {
		if err := cores(s, [2]string{"c", core.ClassTop}, [2]string{"x", core.ClassTop},
			[2]string{"y", core.ClassTop}, [2]string{"z", core.ClassTop}); err != nil {
			return err
		}
		s.Structure.RequireClass("c")
		for _, t := range []string{"x", "y", "z"} {
			s.Structure.RequireRel("c", core.AxisAnc, t)
		}
		if err := s.Structure.ForbidRel("x", core.AxisDesc, "y"); err != nil {
			return err
		}
		if err := s.Structure.ForbidRel("y", core.AxisDesc, "z"); err != nil {
			return err
		}
		return s.Structure.ForbidRel("z", core.AxisDesc, "x")
	})

	return out
}
