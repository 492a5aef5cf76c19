// Package semistruct applies bounding-schemas beyond LDAP directories, to
// semi-structured databases, as Section 6.3 proposes: over edge-labeled
// trees (OEM-style), required and forbidden structural relationships
// between labels express constraints that fixed-length path constraints
// and regular-expression destination constraints cannot — e.g. "every
// person node must have a name descendant at any depth" or "no country
// node may be a descendant of another country node".
//
// The adapter maps labels to core object classes in a flat hierarchy and
// reuses the core legality and consistency machinery unchanged, which is
// precisely the paper's point.
package semistruct

import (
	"fmt"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
)

// Node is a node of a semi-structured data tree: an edge label, an
// optional atomic value, and children.
type Node struct {
	Label    string
	Value    string
	Children []*Node
}

// New returns a node with the given label and no value.
func New(label string, children ...*Node) *Node {
	return &Node{Label: label, Children: children}
}

// Leaf returns a node with a label and an atomic value.
func Leaf(label, value string) *Node {
	return &Node{Label: label, Value: value}
}

// add appends children and returns the node, for fluent tree building.
func (n *Node) add(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// Constraints is a bounding-schema over labels: required labels, and
// required/forbidden structural relationships between labels, with path
// lengths unconstrained (the Section 6.3 generalization).
type Constraints struct {
	schema *core.Schema
}

// NewConstraints returns an empty constraint set.
func NewConstraints() *Constraints {
	return &Constraints{schema: core.NewSchema()}
}

func (c *Constraints) declare(label string) error {
	if label == core.ClassTop {
		return fmt.Errorf("semistruct: label %q is reserved", label)
	}
	if c.schema.Classes.IsCore(label) {
		return nil
	}
	return c.schema.Classes.AddCore(label, core.ClassTop)
}

// requireLabel demands at least one node with the given label.
func (c *Constraints) requireLabel(label string) error {
	if err := c.declare(label); err != nil {
		return err
	}
	c.schema.Structure.RequireClass(label)
	return nil
}

// Require demands that every src-labeled node have an axis-related node
// with the target label (e.g. Require("person", core.AxisDesc, "name")).
func (c *Constraints) Require(src string, axis core.Axis, tgt string) error {
	if err := c.declare(src); err != nil {
		return err
	}
	if err := c.declare(tgt); err != nil {
		return err
	}
	c.schema.Structure.RequireRel(src, axis, tgt)
	return nil
}

// Forbid prohibits any lower-labeled node from being a child (AxisChild)
// or descendant (AxisDesc) of an upper-labeled node.
func (c *Constraints) Forbid(upper string, axis core.Axis, lower string) error {
	if err := c.declare(upper); err != nil {
		return err
	}
	if err := c.declare(lower); err != nil {
		return err
	}
	return c.schema.Structure.ForbidRel(upper, axis, lower)
}

// Consistent reports whether some data tree satisfies the constraints
// (Theorem 5.2 applied to the label schema).
func (c *Constraints) Consistent() core.ConsistencyResult {
	return core.CheckConsistency(c.schema)
}

// Check tests a forest of data trees against the constraints, returning
// the structural violations.
func (c *Constraints) Check(roots ...*Node) (*core.Report, error) {
	d, err := c.directoryOf(roots)
	if err != nil {
		return nil, err
	}
	checker := core.NewChecker(c.schema)
	return checker.CheckStructure(d), nil
}

// directoryOf converts the forest into a directory instance, declaring
// any labels the constraints have not mentioned.
func (c *Constraints) directoryOf(roots []*Node) (*dirtree.Directory, error) {
	// Declare every label in the data so the conversion never produces
	// undeclared classes.
	var declareAll func(n *Node) error
	declareAll = func(n *Node) error {
		if err := c.declare(n.Label); err != nil {
			return err
		}
		for _, k := range n.Children {
			if err := declareAll(k); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := declareAll(r); err != nil {
			return nil, err
		}
	}

	d := dirtree.New(nil)
	seq := 0
	var build func(parent *dirtree.Entry, n *Node) error
	build = func(parent *dirtree.Entry, n *Node) error {
		rdn := fmt.Sprintf("%s=%d", n.Label, seq)
		seq++
		var e *dirtree.Entry
		var err error
		if parent == nil {
			e, err = d.AddRoot(rdn, n.Label, core.ClassTop)
		} else {
			e, err = d.AddChild(parent, rdn, n.Label, core.ClassTop)
		}
		if err != nil {
			return err
		}
		if n.Value != "" {
			e.AddValue("value", dirtree.String(n.Value))
		}
		for _, k := range n.Children {
			if err := build(e, k); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := build(nil, r); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func parseAxis(s string) (core.Axis, error) {
	return core.ParseAxis(s)
}
