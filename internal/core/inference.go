package core

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// This file implements the inference system of Section 5 (Figures 6 and
// 7): a fixpoint closure over schema elements that detects the two causes
// of schema inconsistency — cycles and contradictions — including their
// interactions with the core class hierarchy. The schema is consistent
// iff the marker Exists(∅) is not derivable (Theorem 5.2).
//
// The published figures are reconstructed here from the paper's prose and
// the formal semantics of Definition 2.6 (the source scan is partially
// garbled); DESIGN.md records the reconstruction and the mechanical
// validation strategy. The rules are the rows of ruleTable, and one
// semi-naive drain applies them all.
//
// Facts range over class ids. exists(c) is c⇓, req(a,ax,b) is a →ax b
// and forb(a,ax,b) is a ⇥ax b. The pseudo-class ∅ has no entries, so
// req(c,ax,∅) for any axis marks c unsatisfiable: no entry of class c can
// occur in a legal instance, and exists(∅) is the inconsistency. The
// class tree enters as seeded sub(c,p) facts, p the immediate superclass
// of c, and x⊗y is disjointness: distinct incomparable core classes, with
// ∅ disjoint from everything.
//
// Beyond the pairwise rules reconstructable from the figures, extension
// rules compile the case analysis the Parenthood/Ancestorhood schemata
// need ("the witness is the source entry itself or sits strictly above
// it") into three auxiliary kinds:
//
//	self(a,c):  every a entry also belongs to c
//	above(a,c): every a entry belongs to c or has a strict c ancestor
//	below(a,c): every a entry belongs to c or has a strict c descendant
//
// and a chain-feasibility pass (the general form of the MP/PA/AA
// "Ancestorhood" analysis) detects forced-order cycles among three or
// more required ancestors.
//
// The closure is polynomial: O(|C|²) facts per kind, each processed once
// with O(|C|)-bounded joins.

type factKind int

const (
	factExists factKind = iota
	factReq
	factForb
	factSelf
	factAbove
	factBelow
	factSub // sub(c,p): p is c's immediate superclass; seeded, never derived
	numFactKinds
)

// fact is one closed schema element over class ids. exists(c) is stored
// as (c, ∅); kinds without an axis use axis 0.
type fact struct {
	kind factKind
	a    int // class (exists) or source/upper
	ax   Axis
	b    int // target/lower; ∅ for exists
}

// InferOptions tunes the inference system, for ablation experiments.
type InferOptions struct {
	// PairwiseOnly restricts the system to the rules directly
	// reconstructable from the paper's Figures 6-7 (pairwise premises
	// over req/forb/sub/disjoint facts), disabling this implementation's
	// extensions: the rows of extensionRules (the DPD composition and the
	// self/above/below case analysis) and the chain-feasibility
	// passes. Used to demonstrate which inconsistencies each group
	// catches (experiment E12); production callers should use Infer.
	PairwiseOnly bool
}

// ruleTable is the inference system, one row per rule form:
//
//	NAME  premise … [side condition …]  ⊢  conclusion
//
// A premise or conclusion is kind(class,axis,class) for req and forb and
// kind(class,class) otherwise (exists takes one class). A class is a
// variable x, y, z, w, or the constant ∅ or top; an axis is ch, de, pa,
// an, or a variable A, B ranging over all four. Side conditions are x⊗y
// and x≠∅. Derivations cite NAME, list premises in row order and omit
// sub premises (the class schema is given).
var ruleTable = append(parseRules(false, figureRules), parseRules(true, extensionRules)...)

// figureRules are the pairwise rules of Figure 6 (cycles: N through G)
// and Figure 7 (contradictions: PT through LT). The ch/pa forms of RT
// and LT are derivable: FS propagates a top-rooted prohibition to every
// core class, after which DC and PH fire.
const figureRules = `
N    exists(x) req(x,A,y)                          ⊢ exists(y)
E    exists(x) sub(x,y)                            ⊢ exists(y)
P    req(x,ch,y)                                   ⊢ req(x,de,y)
P    req(x,pa,y)                                   ⊢ req(x,an,y)
T    req(x,de,y) req(y,de,z)                       ⊢ req(x,de,z)
T    req(x,an,y) req(y,an,z)                       ⊢ req(x,an,z)
L    req(x,de,x) x≠∅                               ⊢ req(x,de,∅)
L    req(x,an,x) x≠∅                               ⊢ req(x,an,∅)
S    req(y,A,z) sub(x,y)                           ⊢ req(x,A,z)
G    req(x,A,y) sub(y,z)                           ⊢ req(x,A,z)
PT   req(x,de,y)                                   ⊢ req(x,ch,top)
PT   req(x,an,y)                                   ⊢ req(x,pa,top)
FW   forb(x,de,y)                                  ⊢ forb(x,ch,y)
FL   forb(x,ch,top)                                ⊢ forb(x,de,top)
FS   forb(y,A,z) sub(x,y)                          ⊢ forb(x,A,z)
FS   forb(x,A,y) sub(z,y)                          ⊢ forb(x,A,z)
DC   req(x,A,y) forb(x,A,y)                        ⊢ req(x,A,∅)
PH   req(x,pa,y) forb(y,ch,x)                      ⊢ req(x,pa,∅)
AH   req(x,an,y) forb(y,de,x)                      ⊢ req(x,an,∅)
U    req(x,A,y) req(y,B,∅) y≠∅                     ⊢ req(x,A,∅)
MP   req(x,pa,y) req(x,pa,z) y≠∅ z≠∅ y⊗z           ⊢ req(x,pa,∅)
PA   req(x,pa,y) req(x,an,z) forb(z,de,y) y≠∅ z≠∅ y⊗z
                                                   ⊢ req(x,pa,∅)
AA   req(x,an,y) req(x,an,z) forb(y,de,z) forb(z,de,y) y≠∅ z≠∅ y⊗z
                                                   ⊢ req(x,an,∅)
RT   req(x,de,y) forb(top,ch,y) y≠∅                ⊢ req(x,de,∅)
LT   req(x,an,y) forb(y,ch,top) y≠∅                ⊢ req(x,an,∅)
`

// extensionRules go beyond the pairwise reconstruction. DPD composes a
// required descendant y with y's required parent z, which the x entry,
// or an entry between them, would have to provide: when it cannot be the
// x entry, z lies strictly below x, feeding the cycle rules T/L and the
// conflict rule DC. Its child form needs no row: SI then SD derive
// req(x,ch,∅) from req(x,ch,y), req(y,pa,z) and x⊗z. SI, AB3 and BI
// introduce the case-analysis facts (the y child's parent is the x
// entry; its ancestors are x and x's ancestors; a strict descendant's
// parent is x or below it). SW is the "sandwich" contradiction —
// something must sit below x, but everything at or above x may not have
// it below — and WS its downward dual.
const extensionRules = `
DPD  req(x,de,y) req(y,pa,z) z≠∅ x⊗z               ⊢ req(x,de,z)
DPD  req(x,de,y) req(y,pa,z) forb(x,ch,y) z≠∅      ⊢ req(x,de,z)
SI   req(x,ch,y) req(y,pa,z)                       ⊢ self(x,z)
SD   self(x,y) x⊗y                                 ⊢ req(x,ch,∅)
ST   self(x,y) self(y,z)                           ⊢ self(x,z)
ST   self(y,z) sub(x,y)                            ⊢ self(x,z)
ST   self(x,y) sub(y,z)                            ⊢ self(x,z)
SR   self(x,y) req(y,A,z)                          ⊢ req(x,A,z)
SF   self(x,y) forb(y,A,z)                         ⊢ forb(x,A,z)
SF   self(x,y) forb(z,A,y)                         ⊢ forb(z,A,x)
SE   exists(x) self(x,y)                           ⊢ exists(y)
AB1  req(x,an,y)                                   ⊢ above(x,y)
AB2  self(x,y)                                     ⊢ above(x,y)
AB3  req(x,ch,y) req(y,an,z)                       ⊢ above(x,z)
AO1  above(x,y) x⊗y                                ⊢ req(x,an,y)
AO2  above(x,y) req(y,pa,z)                        ⊢ req(x,an,z)
AO2  above(x,y) req(y,an,z)                        ⊢ req(x,an,z)
AO3  above(x,y) above(y,z)                         ⊢ above(x,z)
AO3  above(y,z) sub(x,y)                           ⊢ above(x,z)
AO3  above(x,y) sub(y,z)                           ⊢ above(x,z)
AO4  above(x,y) forb(y,de,x)                       ⊢ self(x,y)
SW   req(x,de,z) above(x,y) forb(y,de,z) z≠∅       ⊢ req(x,de,∅)
BI   req(x,de,y) req(y,pa,z) z≠∅                   ⊢ below(x,z)
BB2  self(x,y)                                     ⊢ below(x,y)
BO1  below(x,y) x⊗y                                ⊢ req(x,de,y)
BO2  below(x,y) req(y,ch,z)                        ⊢ req(x,de,z)
BO2  below(x,y) req(y,de,z)                        ⊢ req(x,de,z)
BO3  below(x,y) below(y,z)                         ⊢ below(x,z)
BO3  below(y,z) sub(x,y)                           ⊢ below(x,z)
BO3  below(x,y) sub(y,z)                           ⊢ below(x,z)
BO4  below(x,y) forb(x,de,y)                       ⊢ self(x,y)
WS   req(x,an,z) below(x,y) forb(z,de,y) z≠∅       ⊢ req(x,an,∅)
`

// rule is one row of ruleTable.
type rule struct {
	name  string
	ext   bool // a row of extensionRules, off under PairwiseOnly
	prem  []pattern
	conds []cond
	concl pattern
}

// pattern is a fact with terms for arguments: a class term is a variable
// index (0-3 for x-w) or tNone/tTop; the axis is an Axis or axA/axB.
type pattern struct {
	kind factKind
	ax   Axis
	a, b int
}

const (
	tNone = -1 - iota
	tTop
)

const (
	axA Axis = 4 + iota
	axB
)

// cond is a side condition over class terms: op '⊗' (x⊗y) or '≠' (x≠∅).
type cond struct {
	op   rune
	x, y int
}

var factKinds = map[string]factKind{
	"exists": factExists, "req": factReq, "forb": factForb,
	"self": factSelf, "above": factAbove, "below": factBelow, "sub": factSub,
}

// parseRules reads rows in the ruleTable notation. Rows may wrap: every
// token that is not a fact, a side condition or ⊢ starts a new row.
func parseRules(ext bool, src string) []rule {
	var out []rule
	var r *rule
	concl := false
	for _, tok := range strings.Fields(src) {
		switch {
		case tok == "⊢":
			concl = true
		case strings.HasSuffix(tok, ")") && concl:
			r.concl = parsePattern(tok)
		case strings.HasSuffix(tok, ")"):
			r.prem = append(r.prem, parsePattern(tok))
		case strings.Contains(tok, "⊗"):
			x, y, _ := strings.Cut(tok, "⊗")
			r.conds = append(r.conds, cond{'⊗', classTerm(x), classTerm(y)})
		case strings.HasSuffix(tok, "≠∅"):
			r.conds = append(r.conds, cond{'≠', classTerm(strings.TrimSuffix(tok, "≠∅")), tNone})
		default:
			out = append(out, rule{name: tok, ext: ext})
			r, concl = &out[len(out)-1], false
		}
	}
	for _, r := range out {
		r.checkJoinable()
	}
	return out
}

func parsePattern(tok string) pattern {
	name, args, _ := strings.Cut(strings.TrimSuffix(tok, ")"), "(")
	k, ok := factKinds[name]
	if !ok {
		panic("core: rule table: unknown fact kind " + tok)
	}
	arg := strings.Split(args, ",")
	p := pattern{kind: k, a: classTerm(arg[0]), b: tNone}
	switch len(arg) {
	case 2:
		p.b = classTerm(arg[1])
	case 3:
		p.ax, p.b = axisTerm(arg[1]), classTerm(arg[2])
	}
	return p
}

func classTerm(s string) int {
	switch s {
	case "∅":
		return tNone
	case "top":
		return tTop
	}
	if i := strings.Index("xyzw", s); len(s) == 1 && i >= 0 {
		return i
	}
	panic("core: rule table: bad class term " + s)
}

func axisTerm(s string) Axis {
	for ax := AxisChild; ax <= AxisAnc; ax++ {
		if axisShort(ax) == s {
			return ax
		}
	}
	if i := strings.Index("AB", s); len(s) == 1 && i >= 0 {
		return axA + Axis(i)
	}
	panic("core: rule table: bad axis term " + s)
}

// checkJoinable panics unless, whichever premise triggers the row, each
// later premise shares a bound class term with those before it, so a
// join never scans a whole relation.
func (r rule) checkJoinable() {
	for pos := range r.prem {
		bound := map[int]bool{tNone: true, tTop: true, r.prem[pos].a: true, r.prem[pos].b: true}
		for i, p := range r.prem {
			if i == pos {
				continue
			}
			if !bound[p.a] && !bound[p.b] {
				panic("core: rule table: premise of " + r.name + " joins on no bound class")
			}
			bound[p.a], bound[p.b] = true, true
		}
	}
}

// trigger is a premise position of a row; triggers indexes them by the
// kind and axis of the facts that match them.
type trigger struct{ rule, pos int }

var triggers = func() (t [numFactKinds][4][]trigger) {
	for ri, r := range ruleTable {
		for pos, p := range r.prem {
			for ax := AxisChild; ax <= AxisAnc; ax++ {
				if p.ax == ax || p.ax >= axA {
					t[p.kind][ax] = append(t[p.kind][ax], trigger{ri, pos})
				}
			}
		}
	}
	return t
}()

// binding assigns a row's variables, -1 when unbound.
type binding struct {
	cls [4]int
	axs [2]Axis
}

var unbound = binding{cls: [4]int{-1, -1, -1, -1}, axs: [2]Axis{-1, -1}}

// bitset is a set of class ids.
type bitset []uint64

func (s bitset) has(i int) bool { return s != nil && s[i>>6]&(1<<(i&63)) != 0 }

// next returns the least member of s at or above i, or -1.
func (s bitset) next(i int) int {
	w := i >> 6
	if w >= len(s) {
		return -1
	}
	word := s[w] &^ (1<<(i&63) - 1)
	for word == 0 {
		if w++; w == len(s) {
			return -1
		}
		word = s[w]
	}
	return w<<6 | bits.TrailingZeros64(word)
}

func (s bitset) with(i, n int) bitset {
	if s == nil {
		s = make(bitset, (n+63)>>6)
	}
	s[i>>6] |= 1 << (i & 63)
	return s
}

// relation holds one (kind, axis) of the store: fwd[a] is every b with
// the fact (a, b), rev[b] every a.
type relation struct{ fwd, rev []bitset }

func (r *relation) has(a, b int) bool { return a < len(r.fwd) && r.fwd[a].has(b) }

// add inserts (a, b) over n classes and reports whether it is new.
func (r *relation) add(a, b, n int) bool {
	if r.fwd == nil {
		r.fwd, r.rev = make([]bitset, n), make([]bitset, n)
	}
	if r.has(a, b) {
		return false
	}
	r.fwd[a] = r.fwd[a].with(b, n)
	r.rev[b] = r.rev[b].with(a, n)
	return true
}

// Inference is the closed schema-element database. Build it with Infer.
type Inference struct {
	schema *Schema
	opts   InferOptions
	names  []string       // id -> class name; ids[0] is the pseudo-class ∅
	ids    map[string]int // class name -> id
	top    int

	treeParent []int // immediate superclass id, -1 for top and ∅
	depth      []int

	facts [numFactKinds][4]relation
	prov  map[fact]provenance
	work  []fact
}

type provenance struct {
	rule     string
	premises []fact
}

const (
	idNone = 0 // the pseudo-class ∅
)

// Infer computes the closure of the schema's class and structure
// elements under the inference rules.
func Infer(s *Schema) *Inference { return InferWith(s, InferOptions{}) }

// InferWith is Infer with explicit options (see InferOptions).
func InferWith(s *Schema, opts InferOptions) *Inference {
	in := &Inference{
		schema: s,
		opts:   opts,
		ids:    make(map[string]int),
		prov:   make(map[fact]provenance),
	}
	in.addClass(ClassNone)
	// Register every core class; ∅ has id 0, and tree pointers follow the
	// class schema. (Structure schemas range over core classes only.)
	cores := s.Classes.CoreClasses()
	sort.Slice(cores, func(i, j int) bool {
		return s.Classes.DepthOf(cores[i]) < s.Classes.DepthOf(cores[j])
	})
	for _, c := range cores {
		id := in.addClass(c)
		if p, ok := s.Classes.Superclass(c); ok {
			pid := in.ids[p]
			in.treeParent[id] = pid
			in.depth[id] = in.depth[pid] + 1
		}
	}
	in.top = in.ids[ClassTop]
	for c, p := range in.treeParent {
		if p != -1 {
			in.facts[factSub][0].add(c, p, len(in.names))
		}
	}

	// Seed the base facts.
	for _, c := range s.Structure.RequiredClasses() {
		in.assert(fact{kind: factExists, a: in.ids[c]}, "given", nil)
	}
	for _, r := range s.Structure.RequiredRels() {
		in.assert(fact{kind: factReq, a: in.ids[r.Source], ax: r.Axis, b: in.ids[r.Target]}, "given", nil)
	}
	for _, f := range s.Structure.ForbiddenRels() {
		in.assert(fact{kind: factForb, a: in.ids[f.Upper], ax: f.Axis, b: in.ids[f.Lower]}, "given", nil)
	}
	in.drain()

	// Alternate the chain-feasibility pass with the rule closure until
	// neither derives anything new.
	if !opts.PairwiseOnly {
		for in.chainFeasibility() {
			in.drain()
		}
	}
	return in
}

func (in *Inference) addClass(name string) int {
	id := len(in.names)
	in.names = append(in.names, name)
	in.ids[name] = id
	in.treeParent = append(in.treeParent, -1)
	in.depth = append(in.depth, 0)
	return id
}

// subsumes reports sub ⇒ super over ids (reflexive, via the tree).
func (in *Inference) subsumes(sub, super int) bool {
	for c := sub; c != -1; c = in.treeParent[c] {
		if c == super {
			return true
		}
	}
	return false
}

// disjoint reports the ⊗ relation over ids: distinct incomparable core
// classes. ∅ is treated as disjoint from everything.
func (in *Inference) disjoint(a, b int) bool {
	if a == idNone || b == idNone {
		return true
	}
	return !in.subsumes(a, b) && !in.subsumes(b, a)
}

func (in *Inference) has(f fact) bool { return in.facts[f.kind][f.ax].has(f.a, f.b) }

// unsat reports whether the closure marks class c unsatisfiable.
func (in *Inference) unsat(c int) bool {
	for ax := AxisChild; ax <= AxisAnc; ax++ {
		if in.facts[factReq][ax].has(c, idNone) {
			return true
		}
	}
	return c == idNone
}

// targets returns the classes other than ∅ that src requires on axis
// ax, in id order.
func (in *Inference) targets(src int, ax Axis) []int {
	var out []int
	if r := &in.facts[factReq][ax]; src < len(r.fwd) {
		row := r.fwd[src]
		for c := row.next(idNone + 1); c >= 0; c = row.next(c + 1) {
			out = append(out, c)
		}
	}
	return out
}

// assert records f, derived by rule from premises, and queues it; a fact
// already recorded keeps its first derivation.
func (in *Inference) assert(f fact, rule string, premises []fact) {
	if in.facts[f.kind][f.ax].add(f.a, f.b, len(in.names)) {
		in.prov[f] = provenance{rule: rule, premises: premises}
		in.work = append(in.work, f)
	}
}

// drain processes queued facts, oldest first, until the closure is
// stable: each fact is matched against every row premise of its kind and
// axis, and the row's other premises are joined from the store in id
// order, so the closure and every derivation are the same on each run.
func (in *Inference) drain() {
	for len(in.work) > 0 {
		f := in.work[0]
		in.work = in.work[1:]
		for _, t := range triggers[f.kind][f.ax] {
			r := &ruleTable[t.rule]
			v := unbound
			if !(r.ext && in.opts.PairwiseOnly) && in.unify(&v, r.prem[t.pos], f) {
				in.join(r, t.pos, 0, v)
			}
		}
	}
}

// term resolves a class term under v.
func (in *Inference) term(v *binding, t int) (int, bool) {
	switch t {
	case tNone:
		return idNone, true
	case tTop:
		return in.top, true
	}
	return v.cls[t], v.cls[t] >= 0
}

// unify matches pattern p against fact f, extending v.
func (in *Inference) unify(v *binding, p pattern, f fact) bool {
	if p.ax >= axA {
		if v.axs[p.ax-axA] < 0 {
			v.axs[p.ax-axA] = f.ax
		}
		if v.axs[p.ax-axA] != f.ax {
			return false
		}
	} else if p.ax != f.ax {
		return false
	}
	return in.bind(v, p.a, f.a) && in.bind(v, p.b, f.b)
}

// bind matches class term t against class c, extending v.
func (in *Inference) bind(v *binding, t, c int) bool {
	if x, ok := in.term(v, t); ok {
		return x == c
	}
	v.cls[t] = c
	return true
}

// join matches premises i.. of r, skipping the trigger at skip, against
// the store and concludes every full match.
func (in *Inference) join(r *rule, skip, i int, v binding) {
	if i == skip {
		i++
	}
	if i == len(r.prem) {
		in.conclude(r, &v)
		return
	}
	p := r.prem[i]
	lo, hi := p.ax, p.ax
	if p.ax >= axA {
		if lo = v.axs[p.ax-axA]; lo < 0 {
			lo, hi = AxisChild, AxisAnc
		} else {
			hi = lo
		}
	}
	a, aok := in.term(&v, p.a)
	b, bok := in.term(&v, p.b)
	for ax := lo; ax <= hi; ax++ {
		rel := &in.facts[p.kind][ax]
		if rel.fwd == nil {
			continue
		}
		if aok && bok {
			if rel.has(a, b) {
				in.extend(r, skip, i, v, fact{p.kind, a, ax, b})
			}
			continue
		}
		var row bitset
		if aok {
			row = rel.fwd[a]
		} else {
			row = rel.rev[b] // checkJoinable: a or b is bound
		}
		for c := row.next(0); c >= 0; c = row.next(c + 1) {
			f := fact{p.kind, c, ax, b}
			if aok {
				f = fact{p.kind, a, ax, c}
			}
			in.extend(r, skip, i, v, f)
		}
	}
}

func (in *Inference) extend(r *rule, skip, i int, v binding, f fact) {
	if in.unify(&v, r.prem[i], f) {
		in.join(r, skip, i+1, v)
	}
}

// conclude asserts the conclusion of a full match of r that meets the
// side conditions, citing the premises other than sub.
func (in *Inference) conclude(r *rule, v *binding) {
	for _, c := range r.conds {
		x, _ := in.term(v, c.x)
		y, _ := in.term(v, c.y)
		if c.op == '⊗' && !in.disjoint(x, y) || c.op == '≠' && x == idNone {
			return
		}
	}
	f := in.instance(r.concl, v)
	if in.has(f) {
		return
	}
	premises := make([]fact, 0, len(r.prem))
	for _, p := range r.prem {
		if p.kind != factSub {
			premises = append(premises, in.instance(p, v))
		}
	}
	in.assert(f, r.name, premises)
}

func (in *Inference) instance(p pattern, v *binding) fact {
	a, _ := in.term(v, p.a)
	b, _ := in.term(v, p.b)
	if p.ax >= axA {
		p.ax = v.axs[p.ax-axA]
	}
	return fact{p.kind, a, p.ax, b}
}

// chainFeasibility runs the general Ancestorhood analysis: for every
// class, the required ancestors (plus the merged required parent) must
// admit an arrangement on a single ancestor chain. Pairs are handled by
// rules MP/PA/AA; this pass detects forced-order *cycles* of length ≥ 3:
// ancestors x → y ("x must sit above y") whenever y may not sit above x
// (forb(y,de,x)) and the two cannot merge (disjoint). It reports whether
// any new fact was derived.
func (in *Inference) chainFeasibility() bool {
	derived := false
	n := len(in.names)
	for ci := 1; ci < n; ci++ {
		if in.unsat(ci) {
			continue
		}
		if in.paChainInfeasible(ci) {
			derived = true
			continue
		}
		nodes := in.targets(ci, AxisAnc)
		if len(nodes) < 3 {
			continue // pairs are covered by MP/PA/AA
		}
		// Forced-above edges x -> y.
		adj := make(map[int][]int, len(nodes))
		for _, x := range nodes {
			for _, y := range nodes {
				if x == y || !in.disjoint(x, y) {
					continue
				}
				if in.hasForb(y, AxisDesc, x) {
					adj[x] = append(adj[x], y)
				}
			}
		}
		if cycleStart, ok := digraphCycle(nodes, adj); ok {
			in.assert(fact{kind: factReq, a: ci, ax: AxisAnc, b: idNone}, "CHAIN",
				[]fact{{kind: factReq, a: ci, ax: AxisAnc, b: cycleStart}})
			derived = true
		}
	}
	return derived
}

// paChainInfeasible implements the general Parenthood/Ancestorhood
// placement analysis: the parent requirements of ci force the classes of
// its first k ancestors exactly (level i holds the required parent
// classes of level i-1), so every required strict ancestor must either
// merge into one of those k forced levels or sit above the chain's end.
// If some required ancestor has no feasible position, ci is
// unsatisfiable. Pairwise cases are also caught by PA/AH/MP; this pass
// covers chains of length ≥ 2.
func (in *Inference) paChainInfeasible(ci int) bool {
	levels := in.paChainLevels(ci)
	if levels == nil || len(levels) <= 1 {
		return false // no forced chain; pairwise rules cover
	}
	derived := false
	for _, x := range in.targets(ci, AxisAnc) {
		// The placed ancestor brings its own forced parent chain; its
		// members must coexist with (or sit above) everything below
		// their eventual position.
		xChain := in.paChainLevels(x)
		if xChain == nil {
			continue // x's own chain cycles; rules L/U handle it
		}
		placeable := false
		// Merge x into a forced level i ≥ 1; x's chain then overlays the
		// levels above i (and extends past the end).
		for i := 1; i < len(levels) && !placeable; i++ {
			placeable = in.chainFitsAt(levels, xChain, i)
		}
		// Or x (with its chain) sits wholly above the chain's end.
		if !placeable {
			placeable = in.chainFitsAt(levels, xChain, len(levels))
		}
		if !placeable {
			in.assert(fact{kind: factReq, a: ci, ax: AxisAnc, b: idNone}, "PCH",
				[]fact{{kind: factReq, a: ci, ax: AxisAnc, b: x}})
			derived = true
		}
	}
	return derived
}

// paChainLevels returns the forced ancestor levels of class c: level 0 is
// {c}, level k+1 the union of required parent classes of level k. It
// returns nil when the chain exceeds the class count (a cycle, which the
// loop rules flag separately).
func (in *Inference) paChainLevels(c int) [][]int {
	levels := [][]int{{c}}
	for {
		cur := levels[len(levels)-1]
		next := make(map[int]struct{})
		for _, x := range cur {
			for _, t := range in.targets(x, AxisParent) {
				next[t] = struct{}{}
			}
		}
		if len(next) == 0 {
			return levels
		}
		if len(levels) > len(in.names) {
			return nil
		}
		lv := make([]int, 0, len(next))
		for t := range next {
			lv = append(lv, t)
		}
		sort.Ints(lv)
		levels = append(levels, lv)
	}
}

// chainFitsAt reports whether xChain's members, placed at levels
// pos, pos+1, ... of the base chain (merging where a base level exists,
// extending above its end otherwise), respect single inheritance and the
// closed forbidden-descendant facts against every base member below them.
func (in *Inference) chainFitsAt(base, xChain [][]int, pos int) bool {
	for j, lv := range xChain {
		at := pos + j
		for _, m := range lv {
			// Merge compatibility with an existing base level.
			if at < len(base) {
				for _, y := range base[at] {
					if in.disjoint(m, y) {
						return false
					}
				}
			}
			// m sits above every base member strictly below position at.
			limit := at
			if limit > len(base) {
				limit = len(base)
			}
			for k := 0; k < limit; k++ {
				for _, y := range base[k] {
					if in.hasForb(m, AxisDesc, y) {
						return false
					}
				}
			}
			// ... and below the base members strictly above it.
			for k := at + 1; k < len(base); k++ {
				for _, y := range base[k] {
					if in.hasForb(y, AxisDesc, m) {
						return false
					}
				}
			}
		}
	}
	return true
}

// digraphCycle reports whether the directed graph has a cycle, returning
// a node on it.
func digraphCycle(nodes []int, adj map[int][]int) (int, bool) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int]int, len(nodes))
	var dfs func(u int) (int, bool)
	dfs = func(u int) (int, bool) {
		color[u] = gray
		for _, v := range adj[u] {
			switch color[v] {
			case gray:
				return v, true
			case white:
				if c, ok := dfs(v); ok {
					return c, true
				}
			}
		}
		color[u] = black
		return 0, false
	}
	for _, u := range nodes {
		if color[u] == white {
			if c, ok := dfs(u); ok {
				return c, true
			}
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------
// Results.

// Inconsistent reports whether Exists(∅) was derived: the schema admits
// no legal instance.
func (in *Inference) Inconsistent() bool { return in.has(fact{kind: factExists, a: idNone}) }

// Unsatisfiable reports whether the closure proves that no entry of
// class c can occur in any legal instance.
func (in *Inference) Unsatisfiable(c string) bool {
	id, ok := in.ids[c]
	return ok && in.unsat(id)
}

// MustExist reports whether the closure proves that every legal instance
// contains an entry of class c.
func (in *Inference) MustExist(c string) bool {
	id, ok := in.ids[c]
	return ok && in.has(fact{kind: factExists, a: id})
}

// Derived returns every closed schema element as Element values:
// RequiredClass for exists facts, RequiredRel and ForbiddenRel for the
// relationship facts (with ∅ rendered as ClassNone).
func (in *Inference) Derived() []Element {
	var out []Element
	for f := range in.prov {
		if el, ok := in.element(f); ok {
			out = append(out, el)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ElementString() < out[j].ElementString() })
	return out
}

// NumFacts returns the number of closed facts, the size measure for the
// polynomial bound of Theorem 5.2.
func (in *Inference) NumFacts() int { return len(in.prov) }

// Explain returns a human-readable derivation of the given element, or
// "" if it was not derived. For an inconsistent schema,
// Explain(RequiredClass{Class: ClassNone}) explains the inconsistency.
func (in *Inference) Explain(el Element) string {
	f, ok := in.factOf(el)
	if !ok {
		return ""
	}
	var b strings.Builder
	seen := make(map[fact]bool)
	in.explainFact(&b, f, 0, seen)
	return b.String()
}

// ExplainInconsistency returns the derivation of Exists(∅), or "" if the
// schema is consistent.
func (in *Inference) ExplainInconsistency() string {
	if !in.Inconsistent() {
		return ""
	}
	return in.Explain(RequiredClass{Class: ClassNone})
}

// factOf returns the closed fact for a structure element, if derived.
func (in *Inference) factOf(el Element) (fact, bool) {
	id := func(c string) int {
		if i, ok := in.ids[c]; ok {
			return i
		}
		return -1 // in no fact
	}
	var f fact
	switch e := el.(type) {
	case RequiredClass:
		f = fact{kind: factExists, a: id(e.Class)}
	case RequiredRel:
		f = fact{kind: factReq, a: id(e.Source), ax: e.Axis, b: id(e.Target)}
	case ForbiddenRel:
		f = fact{kind: factForb, a: id(e.Upper), ax: e.Axis, b: id(e.Lower)}
	default:
		return f, false
	}
	_, ok := in.prov[f]
	return f, ok
}

// implies reports whether the closure derives the structure element el.
func (in *Inference) implies(el Element) bool {
	_, ok := in.factOf(el)
	return ok
}

// element is the structure element a closed fact states, if any.
func (in *Inference) element(f fact) (Element, bool) {
	switch f.kind {
	case factExists:
		return RequiredClass{Class: in.names[f.a]}, true
	case factReq:
		return RequiredRel{Source: in.names[f.a], Axis: f.ax, Target: in.names[f.b]}, true
	case factForb:
		return ForbiddenRel{Upper: in.names[f.a], Axis: f.ax, Lower: in.names[f.b]}, true
	}
	return nil, false
}

func (in *Inference) explainFact(b *strings.Builder, f fact, depth int, seen map[fact]bool) {
	fmt.Fprintf(b, "%s%s", strings.Repeat("  ", depth), in.factString(f))
	p, ok := in.prov[f]
	if !ok {
		b.WriteString(" (assumed)\n")
		return
	}
	fmt.Fprintf(b, " [%s]\n", p.rule)
	if seen[f] {
		return
	}
	seen[f] = true
	for _, prem := range p.premises {
		in.explainFact(b, prem, depth+1, seen)
	}
}

func (in *Inference) factString(f fact) string {
	if el, ok := in.element(f); ok {
		return el.ElementString()
	}
	switch f.kind {
	case factSelf:
		return in.names[f.a] + " self " + in.names[f.b]
	case factAbove:
		return in.names[f.a] + " at-or-below " + in.names[f.b]
	case factBelow:
		return in.names[f.a] + " at-or-above " + in.names[f.b]
	}
	return "?"
}
