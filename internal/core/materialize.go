package core

import (
	"fmt"
	"sort"

	"boundschema/internal/dirtree"
)

// Materialize constructs a legal witness instance for a consistent
// schema, making the Theorem 5.2 consistency proof constructive: it
// chases the structure schema's obligations, growing the forest downward
// for child/descendant requirements and upward for parent/ancestor
// requirements, then validates the result with the legality checker.
//
// Materialize also serves as the mechanical completeness oracle for the
// reconstructed inference rules (DESIGN.md): if CheckConsistency says
// consistent, Materialize must succeed.
//
// The chase is bounded: a node budget guards against divergence, which
// cannot occur for schemas the closure accepts (a diverging chase implies
// a derivable cycle).
func Materialize(s *Schema) (*dirtree.Directory, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	in := Infer(s)
	if in.Inconsistent() {
		return nil, fmt.Errorf("core: schema is inconsistent:\n%s", in.ExplainInconsistency())
	}
	// Two strategies for placing required ancestors: merging them into
	// existing ancestors where possible, or stacking fresh entries in a
	// forced-order-respecting sequence. Try both before giving up.
	var firstErr error
	for _, mergeAncestors := range []bool{true, false} {
		ch := &chaser{schema: s, inf: in, mergeAncestors: mergeAncestors, budget: chaseBudget(s)}
		d, err := ch.run()
		if err == nil {
			return d, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

func chaseBudget(s *Schema) int {
	n := len(s.Classes.CoreClasses()) + s.Structure.Size() + 4
	return n * n * 4
}

// cnode is a chase node: an entry under construction, with a mutable
// class set (core class ids of the Inference, kept superclass-closed).
type cnode struct {
	classes  map[int]struct{}
	parent   *cnode
	children []*cnode
	seq      int
	// flexibleUp marks nodes whose distance to their creator is not
	// fixed (descendant witnesses and inserted intermediates): when
	// their required parent class cannot merge into the current parent,
	// a fresh intermediate entry may be inserted above them.
	flexibleUp bool
	// paBound marks nodes whose link to their parent realizes a
	// required parent relationship; nothing may be spliced between them.
	paBound bool
}

type chaser struct {
	schema         *Schema
	inf            *Inference
	mergeAncestors bool
	budget         int

	nodes []*cnode
	queue []*cnode
}

// hasForb reports the closed prohibition upper ⇥ax lower.
func (in *Inference) hasForb(upper int, ax Axis, lower int) bool {
	return in.has(fact{kind: factForb, a: upper, ax: ax, b: lower})
}

func (ch *chaser) run() (*dirtree.Directory, error) {
	// Seed one node per required class.
	for _, c := range ch.schema.Structure.RequiredClasses() {
		n := ch.newNode()
		if err := ch.addClass(n, ch.inf.ids[c]); err != nil {
			return nil, err
		}
	}
	for len(ch.queue) > 0 {
		n := ch.queue[0]
		ch.queue = ch.queue[1:]
		if err := ch.discharge(n); err != nil {
			return nil, err
		}
		if len(ch.nodes) > ch.budget {
			return nil, fmt.Errorf("core: chase exceeded its node budget (%d); the schema exposes an inference-rule gap", ch.budget)
		}
	}
	d := ch.emit()
	if report := NewChecker(ch.schema).Check(d); !report.Legal() {
		return nil, fmt.Errorf("core: chase produced an illegal witness:\n%s", report)
	}
	return d, nil
}

func (ch *chaser) newNode() *cnode {
	n := &cnode{classes: make(map[int]struct{}), seq: len(ch.nodes)}
	ch.nodes = append(ch.nodes, n)
	ch.queue = append(ch.queue, n)
	return n
}

func (ch *chaser) enqueue(n *cnode) { ch.queue = append(ch.queue, n) }

// addClass adds a core class and its superclass chain to the node,
// enforcing single inheritance.
func (ch *chaser) addClass(n *cnode, id int) error {
	if _, ok := n.classes[id]; ok {
		return nil
	}
	for c := id; c != -1; c = ch.inf.treeParent[c] {
		n.classes[c] = struct{}{}
	}
	// Single inheritance: all classes must lie on the chain of the
	// deepest one.
	deepest := ch.deepest(n)
	for c := range n.classes {
		if !ch.inf.subsumes(deepest, c) {
			return fmt.Errorf("core: chase needs an entry in both %s and %s, which single inheritance forbids",
				ch.inf.names[deepest], ch.inf.names[c])
		}
	}
	return nil
}

func (ch *chaser) deepest(n *cnode) int {
	best, bestDepth := -1, -1
	for c := range n.classes {
		if d := ch.inf.depth[c]; d > bestDepth {
			best, bestDepth = c, d
		}
	}
	return best
}

func (n *cnode) has(id int) bool {
	_, ok := n.classes[id]
	return ok
}

func (n *cnode) descendantHas(id int) bool {
	for _, c := range n.children {
		if c.has(id) || c.descendantHas(id) {
			return true
		}
	}
	return false
}

func (n *cnode) ancestorHas(id int) bool {
	for p := n.parent; p != nil; p = p.parent {
		if p.has(id) {
			return true
		}
	}
	return false
}

// obligations returns the original (Er) requirements whose source classes
// the node belongs to, grouped by axis. Only the original elements
// matter for legality; the closure is consulted for ordering decisions.
func (ch *chaser) obligations(n *cnode) map[Axis][]int {
	out := make(map[Axis][]int)
	for _, r := range ch.schema.Structure.RequiredRels() {
		src, ok := ch.inf.ids[r.Source]
		if !ok || !n.has(src) {
			continue
		}
		tgt := ch.inf.ids[r.Target]
		out[r.Axis] = append(out[r.Axis], tgt)
	}
	for ax := range out {
		sort.Slice(out[ax], func(i, j int) bool {
			// Deepest targets first, so one child can satisfy both a
			// class and its superclasses.
			return ch.inf.depth[out[ax][i]] > ch.inf.depth[out[ax][j]]
		})
	}
	return out
}

func (ch *chaser) discharge(n *cnode) error {
	obl := ch.obligations(n)

	// Downward: children and descendants grow below n; a child witness
	// also serves as a descendant witness. Descendant witnesses get a
	// plain spacer entry when a direct child of that class is forbidden,
	// and stay flexible so their own parent requirements can insert
	// intermediates rather than merge into n.
	for _, ax := range []Axis{AxisChild, AxisDesc} {
		for _, tgt := range obl[ax] {
			satisfied := false
			if ax == AxisChild {
				for _, c := range n.children {
					if c.has(tgt) {
						satisfied = true
						break
					}
				}
			} else {
				satisfied = n.descendantHas(tgt)
			}
			if satisfied {
				continue
			}
			under := n
			if ax == AxisDesc && ch.childForbidden(n, tgt) {
				spacer := ch.newSpacer()
				ch.attach(under, spacer)
				under = spacer
			}
			child := ch.newNode()
			child.flexibleUp = ax == AxisDesc
			ch.attach(under, child)
			if err := ch.addClass(child, tgt); err != nil {
				return err
			}
			ch.enqueue(n) // re-examine: later obligations may now be met
		}
	}

	// Upward: the required parent classes merge into one entry; when the
	// existing parent cannot take them and the node is flexible, insert
	// a fresh intermediate entry instead.
	if pas := obl[AxisParent]; len(pas) > 0 {
		if n.parent == nil {
			// A fresh parent takes all the required classes directly;
			// incompatibility here means rule MP should have fired.
			p := ch.newNode()
			p.flexibleUp = true
			ch.attach(p, n)
			for _, tgt := range pas {
				if err := ch.addClass(p, tgt); err != nil {
					return err
				}
			}
		}
		var unmet []int
		for _, tgt := range pas {
			if !n.parent.has(tgt) {
				unmet = append(unmet, tgt)
			}
		}
		n.paBound = true
		if len(unmet) > 0 {
			p := n.parent
			takable := true
			for _, tgt := range unmet {
				if !ch.mergeCompatible(p, tgt) || ch.mergeWouldForbid(p, tgt) {
					takable = false
					break
				}
			}
			switch {
			case takable:
				for _, tgt := range unmet {
					if err := ch.addClass(p, tgt); err != nil {
						return err
					}
				}
				ch.enqueue(p)
			case n.flexibleUp:
				m, err := ch.insertAbove(n, unmet)
				if err != nil {
					return err
				}
				ch.enqueue(m)
			default:
				// A child witness has no slack: merge and let the final
				// validation judge the result.
				for _, tgt := range unmet {
					if err := ch.addClass(p, tgt); err != nil {
						return err
					}
				}
				ch.enqueue(p)
			}
		}
	}

	// Upward: required ancestors merge into existing ancestors when
	// allowed, or stack above the chain's top in a forced-order-
	// respecting sequence.
	var missing []int
	for _, tgt := range obl[AxisAnc] {
		if !n.ancestorHas(tgt) {
			missing = append(missing, tgt)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	var still []int
	for _, tgt := range missing {
		if ch.mergeAncestors && ch.tryMergeAncestor(n, tgt) {
			continue
		}
		if ch.tryInsertAncestor(n, tgt) {
			continue
		}
		still = append(still, tgt)
	}
	if len(still) > 0 {
		if err := ch.stackAncestors(n, still); err != nil {
			return err
		}
	}
	return nil
}

// tryInsertAncestor places the required ancestor class as a fresh entry
// spliced between two existing entries on n's root path, at the lowest
// flexible point where the closed forbidden facts allow it.
func (ch *chaser) tryInsertAncestor(n *cnode, tgt int) bool {
	for m := n; m != nil && m.parent != nil; m = m.parent {
		if !m.flexibleUp || m.paBound {
			continue
		}
		// tgt would sit above m's whole subtree...
		if ch.forbidsAboveSubtree(tgt, m) {
			continue
		}
		// ... and below everything above m.
		ok := true
		for a := m.parent; a != nil && ok; a = a.parent {
			for y := range a.classes {
				if ch.inf.hasForb(y, AxisDesc, tgt) {
					ok = false
					break
				}
			}
		}
		if !ok {
			continue
		}
		if _, err := ch.insertAbove(m, []int{tgt}); err == nil {
			return true
		}
	}
	return false
}

// forbidsAboveSubtree reports whether placing an entry of class tgt above
// m would violate a closed forbidden-descendant fact against any entry in
// m's subtree (m included).
func (ch *chaser) forbidsAboveSubtree(tgt int, m *cnode) bool {
	for y := range m.classes {
		if ch.inf.hasForb(tgt, AxisDesc, y) {
			return true
		}
	}
	for _, c := range m.children {
		if ch.forbidsAboveSubtree(tgt, c) {
			return true
		}
	}
	return false
}

// newSpacer creates a plain entry of class top, used to put distance
// between entries whose direct parent-child pairing is forbidden.
func (ch *chaser) newSpacer() *cnode {
	s := ch.newNode()
	s.flexibleUp = true
	if err := ch.addClass(s, ch.inf.ids[ClassTop]); err != nil {
		panic(err) // top alone cannot violate single inheritance
	}
	return s
}

// attach makes child a child of parent.
func (ch *chaser) attach(parent, child *cnode) {
	child.parent = parent
	parent.children = append(parent.children, child)
}

// childForbidden reports whether a direct child of class tgt under n
// would violate a (closed) forbidden child relationship.
func (ch *chaser) childForbidden(n *cnode, tgt int) bool {
	deep := ch.deepest(n)
	return deep != -1 && ch.inf.hasForb(deep, AxisChild, tgt)
}

// insertAbove splices a fresh entry carrying the given classes between n
// and its current parent, inserting a plain spacer above it if the
// grandparent may not have a child of the new entry's classes.
func (ch *chaser) insertAbove(n *cnode, classes []int) (*cnode, error) {
	p := n.parent
	// Detach n from p.
	for i, c := range p.children {
		if c == n {
			p.children = append(p.children[:i:i], p.children[i+1:]...)
			break
		}
	}
	m := ch.newNode()
	m.flexibleUp = true
	for _, cls := range classes {
		if err := ch.addClass(m, cls); err != nil {
			return nil, err
		}
	}
	under := p
	if deep := ch.deepest(m); deep != -1 && ch.childForbidden(p, deep) {
		spacer := ch.newSpacer()
		ch.attach(p, spacer)
		under = spacer
	}
	ch.attach(under, m)
	if deep := ch.deepest(n); deep != -1 && ch.childForbidden(m, deep) {
		spacer := ch.newSpacer()
		ch.attach(m, spacer)
		ch.attach(spacer, n)
		return m, nil
	}
	ch.attach(m, n)
	return m, nil
}

// tryMergeAncestor adds the target class to an existing ancestor if the
// merge respects single inheritance and introduces no forbidden
// relationship with the entries already below it.
func (ch *chaser) tryMergeAncestor(n *cnode, tgt int) bool {
	for p := n.parent; p != nil; p = p.parent {
		if !ch.mergeCompatible(p, tgt) {
			continue
		}
		if ch.mergeWouldForbid(p, tgt) {
			continue
		}
		if err := ch.addClass(p, tgt); err != nil {
			continue
		}
		ch.enqueue(p)
		return true
	}
	return false
}

func (ch *chaser) mergeCompatible(p *cnode, tgt int) bool {
	deep := ch.deepest(p)
	if deep == -1 {
		return true // a classless node accepts any chain
	}
	return ch.inf.subsumes(deep, tgt) || ch.inf.subsumes(tgt, deep)
}

// mergeWouldForbid reports whether giving p the target class would
// violate a forbidden relationship against p's current ancestors or
// descendants, using the closed forbidden facts.
func (ch *chaser) mergeWouldForbid(p *cnode, tgt int) bool {
	// tgt above p's descendants.
	var below func(m *cnode) bool
	below = func(m *cnode) bool {
		for _, c := range m.children {
			for cc := range c.classes {
				if ch.inf.hasForb(tgt, AxisDesc, cc) {
					return true
				}
				if c.parent == p && ch.inf.hasForb(tgt, AxisChild, cc) {
					return true
				}
			}
			if below(c) {
				return true
			}
		}
		return false
	}
	if below(p) {
		return true
	}
	// tgt below p's ancestors.
	for a := p.parent; a != nil; a = a.parent {
		for ac := range a.classes {
			if ch.inf.hasForb(ac, AxisDesc, tgt) {
				return true
			}
			if a == p.parent && ch.inf.hasForb(ac, AxisChild, tgt) {
				return true
			}
		}
	}
	return false
}

// stackAncestors creates fresh entries for the missing ancestor classes
// above the top of n's current chain, ordered so that no forbidden
// descendant relationship is introduced: x is placed above y whenever
// forb(y, de, x) holds (y may not sit above x).
func (ch *chaser) stackAncestors(n *cnode, targets []int) error {
	// Deduplicate.
	set := make(map[int]struct{}, len(targets))
	for _, t := range targets {
		set[t] = struct{}{}
	}
	uniq := make([]int, 0, len(set))
	for t := range set {
		uniq = append(uniq, t)
	}
	// Order bottom-up: y before x when x must be above y. A simple
	// repeated selection of a placeable minimum implements the
	// topological order; the closure's chain-feasibility pass guarantees
	// one exists for consistent schemas.
	var order []int
	remaining := append([]int(nil), uniq...)
	sort.Ints(remaining)
	for len(remaining) > 0 {
		placed := false
		for i, y := range remaining {
			// y is placeable lowest if no other remaining x must sit
			// below y (forb(y, de, x) means x may not be below y... it
			// means no x below y is allowed when y is above x; we need y
			// lowest, i.e. every other x will be above y: require
			// ¬forb(y, de, …) nothing: x above y requires ¬forb(x,de,y).
			ok := true
			for _, x := range remaining {
				if x != y && ch.inf.hasForb(x, AxisDesc, y) {
					ok = false
					break
				}
			}
			if ok {
				order = append(order, y)
				remaining = append(remaining[:i], remaining[i+1:]...)
				placed = true
				break
			}
		}
		if !placed {
			return fmt.Errorf("core: no feasible ancestor order for classes %v", ch.classNames(remaining))
		}
	}
	// Attach above the chain's current top, with a plain spacer whenever
	// the new ancestor may not have a direct child of the current top's
	// classes.
	top := n
	for top.parent != nil {
		top = top.parent
	}
	for _, t := range order {
		// The new ancestor sits above everything currently in the chain;
		// verify the forbidden facts allow that.
		for m := n; m != nil; m = m.parent {
			for mc := range m.classes {
				if ch.inf.hasForb(t, AxisDesc, mc) {
					return fmt.Errorf("core: required ancestor %s may not sit above %s",
						ch.inf.names[t], ch.inf.names[mc])
				}
			}
		}
		if deep := ch.deepest(top); deep != -1 && ch.inf.hasForb(t, AxisChild, deep) {
			spacer := ch.newSpacer()
			ch.attach(spacer, top)
			top = spacer
		}
		p := ch.newNode()
		p.flexibleUp = true
		ch.attach(p, top)
		if err := ch.addClass(p, t); err != nil {
			return err
		}
		top = p
	}
	return nil
}

func (ch *chaser) classNames(ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = ch.inf.names[id]
	}
	return out
}

// emit converts the chase forest into a directory instance, filling in
// required attributes with typed placeholder values.
func (ch *chaser) emit() *dirtree.Directory {
	d := dirtree.New(ch.schema.Registry)
	var emitNode func(parent *dirtree.Entry, n *cnode)
	emitNode = func(parent *dirtree.Entry, n *cnode) {
		classes := make([]string, 0, len(n.classes))
		for c := range n.classes {
			classes = append(classes, ch.inf.names[c])
		}
		sort.Strings(classes)
		rdn := fmt.Sprintf("cn=w%d", n.seq)
		var e *dirtree.Entry
		var err error
		if parent == nil {
			e, err = d.AddRoot(rdn, classes...)
		} else {
			e, err = d.AddChild(parent, rdn, classes...)
		}
		if err != nil {
			panic(err) // sequence numbers are unique; cannot happen
		}
		ch.fillRequiredAttrs(e, classes, n.seq)
		for _, c := range n.children {
			emitNode(e, c)
		}
	}
	for _, n := range ch.nodes {
		if n.parent == nil {
			emitNode(nil, n)
		}
	}
	return d
}

func (ch *chaser) fillRequiredAttrs(e *dirtree.Entry, classes []string, seq int) {
	reg := ch.schema.Registry
	for _, c := range classes {
		for _, a := range ch.schema.Attrs.Required(c) {
			if e.HasAttr(a) {
				continue
			}
			// Key attributes must be unique across the witness, so the
			// placeholder carries the entry's sequence number.
			var v dirtree.Value
			switch reg.Type(a) {
			case dirtree.TypeInt:
				v = dirtree.Int(int64(seq))
			case dirtree.TypeBool:
				v = dirtree.Bool(false)
			case dirtree.TypeDN:
				v = dirtree.DN(e.DN())
			case dirtree.TypeTel:
				v = dirtree.Tel(fmt.Sprintf("+1 000 000 %04d", seq))
			default:
				if ch.schema.IsKey(a) {
					v = dirtree.String(fmt.Sprintf("placeholder-%s-%d", a, seq))
				} else {
					v = dirtree.String("placeholder-" + a)
				}
			}
			e.AddValue(a, v)
		}
	}
}
