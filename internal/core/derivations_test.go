package core

import (
	"fmt"
	"sort"
)

// This file is an independent proof checker for the closure's recorded
// derivations. Its rule table restates Figures 6-7 and the extension
// rules (inference.go) as shapes over fact kinds, and its side conditions
// read the class schema directly rather than Inference.subsumes or
// Inference.disjoint, so a derivation that cites the wrong rule, the
// wrong premises or a false ⇒/⊗ fails here even when every verdict is
// right.

// derivCtx is what a rule shape may consult: the class hierarchy, as
// the class schema states it, and the closure's fact set.
type derivCtx struct {
	in   *Inference
	none int
	top  int
}

// parent is the immediate superclass of x in the class schema.
func (d derivCtx) parent(x int) (int, bool) {
	if x == d.none {
		return 0, false
	}
	p, ok := d.in.schema.Classes.Superclass(d.in.names[x])
	if !ok {
		return 0, false
	}
	id, ok := d.in.ids[p]
	return id, ok
}

// isParent reports that p is x's immediate superclass.
func (d derivCtx) isParent(x, p int) bool {
	q, ok := d.parent(x)
	return ok && q == p
}

// disj is x ⊗ y from the class schema; ∅ is disjoint from everything.
func (d derivCtx) disj(x, y int) bool {
	return x == d.none || y == d.none || d.in.schema.Classes.Disjoint(d.in.names[x], d.in.names[y])
}

// holds reports that f is in the closure.
func (d derivCtx) holds(f fact) bool {
	_, ok := d.in.prov[f]
	return ok
}

func ex(c int) fact                 { return fact{kind: factExists, a: c} }
func rq(a int, ax Axis, b int) fact { return fact{kind: factReq, a: a, ax: ax, b: b} }
func fb(a int, ax Axis, b int) fact { return fact{kind: factForb, a: a, ax: ax, b: b} }
func sf(a, c int) fact              { return fact{kind: factSelf, a: a, b: c} }
func ab(a, c int) fact              { return fact{kind: factAbove, a: a, b: c} }
func bl(a, c int) fact              { return fact{kind: factBelow, a: a, b: c} }

// ruleShape is one form of a rule: its premise kinds in order, and the
// relation the conclusion c and premises p must satisfy, side
// conditions included.
type ruleShape struct {
	prem []factKind
	ok   func(d derivCtx, c fact, p []fact) bool
}

func shape(ok func(d derivCtx, c fact, p []fact) bool, prem ...factKind) ruleShape {
	return ruleShape{prem: prem, ok: ok}
}

var (
	kEx = factExists
	kRq = factReq
	kFb = factForb
	kSf = factSelf
	kAb = factAbove
	kBl = factBelow
)

// transitiveUp closes a binary kind over itself and the class tree:
// k(a,c), k(c,d) ⊢ k(a,d); k(a,c) ⊢ k(s,c) for s a subclass of a;
// k(a,c) ⊢ k(a,p) for p c's superclass.
func transitiveUp(k factKind) []ruleShape {
	mk := func(a, b int) fact { return fact{kind: k, a: a, b: b} }
	return []ruleShape{
		shape(func(d derivCtx, c fact, p []fact) bool {
			return p[0].b == p[1].a && c == mk(p[0].a, p[1].b)
		}, k, k),
		shape(func(d derivCtx, c fact, p []fact) bool {
			return c.kind == k && c.b == p[0].b && d.isParent(c.a, p[0].a) ||
				c == mk(p[0].a, c.b) && d.isParent(p[0].b, c.b)
		}, k),
	}
}

// derivationRules is the checker's rule table, keyed by the name a
// derivation cites. "given" has no shapes: its facts must be elements
// of the structure schema. CHAIN and PCH conclude from the chain-
// feasibility pass, whose side condition (no placement of the required
// ancestors on one chain) is a search and is not recomputed here.
var derivationRules = map[string][]ruleShape{
	// Figure 6.
	"N": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].a == p[1].a && c == ex(p[1].b)
	}, kEx, kRq)},
	"E": {shape(func(d derivCtx, c fact, p []fact) bool {
		return c.kind == factExists && d.isParent(p[0].a, c.a)
	}, kEx)},
	"P": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].ax == AxisChild && c == rq(p[0].a, AxisDesc, p[0].b) ||
			p[0].ax == AxisParent && c == rq(p[0].a, AxisAnc, p[0].b)
	}, kRq)},
	"T": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].ax.Transitive() && p[1].ax == p[0].ax && p[0].b == p[1].a && c == rq(p[0].a, p[0].ax, p[1].b)
	}, kRq, kRq)},
	"L": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].ax.Transitive() && p[0].a == p[0].b && p[0].a != d.none && c == rq(p[0].a, p[0].ax, d.none)
	}, kRq)},
	"S": {shape(func(d derivCtx, c fact, p []fact) bool {
		return c == rq(c.a, p[0].ax, p[0].b) && d.isParent(c.a, p[0].a)
	}, kRq)},
	"G": {shape(func(d derivCtx, c fact, p []fact) bool {
		return c == rq(p[0].a, p[0].ax, c.b) && d.isParent(p[0].b, c.b)
	}, kRq)},

	// Figure 7.
	"PT": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].ax == AxisDesc && c == rq(p[0].a, AxisChild, d.top) ||
			p[0].ax == AxisAnc && c == rq(p[0].a, AxisParent, d.top)
	}, kRq)},
	"FW": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].ax == AxisDesc && c == fb(p[0].a, AxisChild, p[0].b)
	}, kFb)},
	"FL": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0] == fb(p[0].a, AxisChild, d.top) && c == fb(p[0].a, AxisDesc, d.top)
	}, kFb)},
	"FS": {shape(func(d derivCtx, c fact, p []fact) bool {
		return c == fb(c.a, p[0].ax, p[0].b) && d.isParent(c.a, p[0].a) ||
			c == fb(p[0].a, p[0].ax, c.b) && d.isParent(c.b, p[0].b)
	}, kFb)},
	"DC": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].ax.Downward() && p[1] == fb(p[0].a, p[0].ax, p[0].b) && c == rq(p[0].a, p[0].ax, d.none)
	}, kRq, kFb)},
	"PH": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].ax == AxisParent && p[1] == fb(p[0].b, AxisChild, p[0].a) && c == rq(p[0].a, AxisParent, d.none)
	}, kRq, kFb)},
	"AH": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].ax == AxisAnc && p[1] == fb(p[0].b, AxisDesc, p[0].a) && c == rq(p[0].a, AxisAnc, d.none)
	}, kRq, kFb)},
	"U": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].b != d.none && p[1] == rq(p[0].b, p[1].ax, d.none) && c == rq(p[0].a, p[0].ax, d.none)
	}, kRq, kRq)},
	"MP": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].ax == AxisParent && p[1] == rq(p[0].a, AxisParent, p[1].b) && twoDisjoint(d, p[0].b, p[1].b) &&
			c == rq(p[0].a, AxisParent, d.none)
	}, kRq, kRq)},
	// x →pa y, x →an z, z ⇥de y, y ⊗ z ⊢ x →pa ∅.
	"PA": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].ax == AxisParent && p[1] == rq(p[0].a, AxisAnc, p[1].b) && twoDisjoint(d, p[0].b, p[1].b) &&
			p[2] == fb(p[1].b, AxisDesc, p[0].b) && c == rq(p[0].a, AxisParent, d.none)
	}, kRq, kRq, kFb)},
	// x →an y, x →an z, y ⇥de z, z ⇥de y, y ⊗ z ⊢ x →an ∅.
	"AA": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].ax == AxisAnc && p[1] == rq(p[0].a, AxisAnc, p[1].b) && twoDisjoint(d, p[0].b, p[1].b) &&
			p[2] == fb(p[0].b, AxisDesc, p[1].b) && p[3] == fb(p[1].b, AxisDesc, p[0].b) && c == rq(p[0].a, AxisAnc, d.none)
	}, kRq, kRq, kFb, kFb)},
	"RT": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].ax == AxisDesc && p[0].b != d.none && p[1] == fb(d.top, AxisChild, p[0].b) && c == rq(p[0].a, AxisDesc, d.none)
	}, kRq, kFb)},
	"LT": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].ax == AxisAnc && p[0].b != d.none && p[1] == fb(p[0].b, AxisChild, d.top) && c == rq(p[0].a, AxisAnc, d.none)
	}, kRq, kFb)},
	"DPD": {
		shape(func(d derivCtx, c fact, p []fact) bool {
			return composes(d, p, AxisDesc) && d.disj(p[0].a, p[1].b) && c == rq(p[0].a, AxisDesc, p[1].b)
		}, kRq, kRq),
		shape(func(d derivCtx, c fact, p []fact) bool {
			return composes(d, p, AxisDesc) && p[2] == fb(p[0].a, AxisChild, p[0].b) && c == rq(p[0].a, AxisDesc, p[1].b)
		}, kRq, kRq, kFb),
	},

	// Case analysis: self.
	"SI": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].ax == AxisChild && p[0].b != d.none && p[1] == rq(p[0].b, AxisParent, p[1].b) && c == sf(p[0].a, p[1].b)
	}, kRq, kRq)},
	"SD": {shape(func(d derivCtx, c fact, p []fact) bool {
		return d.disj(p[0].a, p[0].b) && c == rq(p[0].a, AxisChild, d.none)
	}, kSf)},
	"ST": transitiveUp(factSelf),
	"SR": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[1].a == p[0].b && c == rq(p[0].a, p[1].ax, p[1].b)
	}, kSf, kRq)},
	"SF": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[1].a == p[0].b && c == fb(p[0].a, p[1].ax, p[1].b) ||
			p[1].b == p[0].b && c == fb(p[1].a, p[1].ax, p[0].a)
	}, kSf, kFb)},
	"SE": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[1].a == p[0].a && c == ex(p[1].b)
	}, kEx, kSf)},

	// Case analysis: above.
	"AB1": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].ax == AxisAnc && c == ab(p[0].a, p[0].b)
	}, kRq)},
	"AB2": {shape(func(d derivCtx, c fact, p []fact) bool { return c == ab(p[0].a, p[0].b) }, kSf)},
	"AB3": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].ax == AxisChild && p[0].b != d.none && p[1] == rq(p[0].b, AxisAnc, p[1].b) && c == ab(p[0].a, p[1].b)
	}, kRq, kRq)},
	"AO1": {shape(func(d derivCtx, c fact, p []fact) bool {
		return d.disj(p[0].a, p[0].b) && c == rq(p[0].a, AxisAnc, p[0].b)
	}, kAb)},
	"AO2": {shape(func(d derivCtx, c fact, p []fact) bool {
		return !p[1].ax.Downward() && p[1].a == p[0].b && c == rq(p[0].a, AxisAnc, p[1].b)
	}, kAb, kRq)},
	"AO3": transitiveUp(factAbove),
	"AO4": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[1] == fb(p[0].b, AxisDesc, p[0].a) && c == sf(p[0].a, p[0].b)
	}, kAb, kFb)},
	"SW": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].ax == AxisDesc && p[0].b != d.none && p[1] == ab(p[0].a, p[1].b) &&
			p[2] == fb(p[1].b, AxisDesc, p[0].b) && c == rq(p[0].a, AxisDesc, d.none)
	}, kRq, kAb, kFb)},

	// Case analysis: below.
	"BI": {shape(func(d derivCtx, c fact, p []fact) bool {
		return composes(d, p, AxisDesc) && c == bl(p[0].a, p[1].b)
	}, kRq, kRq)},
	"BB2": {shape(func(d derivCtx, c fact, p []fact) bool { return c == bl(p[0].a, p[0].b) }, kSf)},
	"BO1": {shape(func(d derivCtx, c fact, p []fact) bool {
		return d.disj(p[0].a, p[0].b) && c == rq(p[0].a, AxisDesc, p[0].b)
	}, kBl)},
	"BO2": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[1].ax.Downward() && p[1].a == p[0].b && c == rq(p[0].a, AxisDesc, p[1].b)
	}, kBl, kRq)},
	"BO3": transitiveUp(factBelow),
	"BO4": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[1] == fb(p[0].a, AxisDesc, p[0].b) && c == sf(p[0].a, p[0].b)
	}, kBl, kFb)},
	"WS": {shape(func(d derivCtx, c fact, p []fact) bool {
		return p[0].ax == AxisAnc && p[0].b != d.none && p[1] == bl(p[0].a, p[1].b) &&
			p[2] == fb(p[0].b, AxisDesc, p[1].b) && c == rq(p[0].a, AxisAnc, d.none)
	}, kRq, kBl, kFb)},

	// Feasibility passes.
	"CHAIN": {chainShape},
	"PCH":   {chainShape},
}

var chainShape = shape(func(d derivCtx, c fact, p []fact) bool {
	return p[0].ax == AxisAnc && p[0].b != d.none && c == rq(p[0].a, AxisAnc, d.none)
}, kRq)

// twoDisjoint: y ⊗ z, both non-∅.
func twoDisjoint(d derivCtx, y, z int) bool {
	return y != d.none && z != d.none && d.disj(y, z)
}

// composes: p[0] is x →ax y and p[1] is y →pa z with z non-∅.
func composes(d derivCtx, p []fact, ax Axis) bool {
	return p[0].ax == ax && p[1] == rq(p[0].b, AxisParent, p[1].b) && p[1].b != d.none
}

// checkDerivations verifies every fact the closure recorded: a given
// fact is an element of the structure schema; a derived one cites a rule
// of derivationRules whose premise kinds, side conditions and conclusion
// match, and premises that are themselves recorded; and no fact rests,
// through its premises, on itself, so the facts can be ordered with
// every premise before its conclusion.
func checkDerivations(in *Inference) error {
	d := derivCtx{in: in, none: idNone, top: in.ids[ClassTop]}
	facts := make([]fact, 0, len(in.prov))
	for f := range in.prov {
		facts = append(facts, f)
	}
	sort.Slice(facts, func(i, j int) bool {
		x, y := facts[i], facts[j]
		if x.kind != y.kind {
			return x.kind < y.kind
		}
		if x.a != y.a {
			return x.a < y.a
		}
		if x.ax != y.ax {
			return x.ax < y.ax
		}
		return x.b < y.b
	})
	for _, f := range facts {
		if err := d.checkStep(f, in.prov[f]); err != nil {
			return fmt.Errorf("%s [%s]: %v", in.factString(f), in.prov[f].rule, err)
		}
	}
	// Well-foundedness: a depth-first walk finds no premise cycle.
	const (
		open = 1
		done = 2
	)
	state := make(map[fact]int, len(facts))
	var walk func(f fact) error
	walk = func(f fact) error {
		switch state[f] {
		case open:
			return fmt.Errorf("%s rests on itself", in.factString(f))
		case done:
			return nil
		}
		state[f] = open
		for _, p := range in.prov[f].premises {
			if err := walk(p); err != nil {
				return err
			}
		}
		state[f] = done
		return nil
	}
	for _, f := range facts {
		if err := walk(f); err != nil {
			return err
		}
	}
	return nil
}

// checkStep checks one recorded derivation step.
func (d derivCtx) checkStep(f fact, p provenance) error {
	for _, prem := range p.premises {
		if !d.holds(prem) {
			return fmt.Errorf("premise %s is neither given nor derived", d.in.factString(prem))
		}
	}
	if p.rule == "given" {
		if len(p.premises) != 0 || !d.given(f) {
			return fmt.Errorf("not an element of the structure schema")
		}
		return nil
	}
	shapes, ok := derivationRules[p.rule]
	if !ok {
		return fmt.Errorf("no such rule")
	}
	for _, sh := range shapes {
		if len(sh.prem) != len(p.premises) {
			continue
		}
		kinds := true
		for i, k := range sh.prem {
			kinds = kinds && p.premises[i].kind == k
		}
		if kinds && sh.ok(d, f, p.premises) {
			return nil
		}
	}
	var prem []string
	for _, q := range p.premises {
		prem = append(prem, d.in.factString(q))
	}
	return fmt.Errorf("no form of the rule derives it from %q", prem)
}

// given reports that f is an element of the structure schema.
func (d derivCtx) given(f fact) bool {
	st, names := d.in.schema.Structure, d.in.names
	switch f.kind {
	case factExists:
		return st.IsRequiredClass(names[f.a])
	case factReq:
		return st.has(RequiredRel{Source: names[f.a], Axis: f.ax, Target: names[f.b]})
	case factForb:
		return st.has(ForbiddenRel{Upper: names[f.a], Axis: f.ax, Lower: names[f.b]})
	}
	return false
}
