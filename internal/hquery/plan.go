package hquery

// Cost-based access-path selection for σ(filter) nodes.
//
// Theorem 3.1 budgets O(|Q|·|D|) for a whole query, but before this file
// every non-class atom spent the full |D| on its own: selectQ.eval either
// read a class posting list or scanned the view. The paper's closing
// remark — "query optimization is facilitated using schema" (§7) — is
// realized here: the registry's typing τ turns filter text into typed
// probe keys, and the attribute-value B+trees (dirtree/attrindex.go)
// answer equality, one-sided range, presence and text-prefix probes with
// exact O(log n) cardinalities, so the planner chooses among
//
//   - a class posting list (the classic path, now picking the *smallest*
//     list when a conjunction names several classes),
//   - an index probe on one conjunct (equality, >=/<=, substring initial
//     prefix, presence),
//   - a plain view scan,
//
// whichever touches the fewest entries, applying the remaining conjuncts
// as a residual filter. Because the probes implement exactly the typed
// comparison semantics of filter.Compare (including cross-type ordering
// and the raw-string fallback, which is simply not index-servable), the
// chosen path is an equivalence, never an approximation — the
// differential oracle in the server tests holds index-backed SEARCH
// byte-identical to scans.

import (
	"boundschema/internal/dirtree"
	"boundschema/internal/filter"
)

// Strategy names, as rendered by EXPLAIN (Stats) and the Plan type.
const (
	stratScan    = "scan"
	stratClass   = "posting-list"
	stratEq      = "index-eq"
	stratRange   = "index-range"
	stratPrefix  = "index-prefix"
	stratPresent = "index-present"
	stratEmpty   = "empty"
)

// sPlan is the chosen access path for one σ(filter) node.
type sPlan struct {
	strategy string
	class    string         // stratClass: posting list to read
	attr     string         // index paths: attribute probed
	eq       dirtree.Value  // stratEq: typed probe key
	lo, hi   *dirtree.Value // stratRange bounds; nil = unbounded
	prefix   string         // stratPrefix: initial text
	residual filter.Filter  // applied over the candidates; nil = exact
	est      int            // candidates the path fetches (exact rank counts)
	scanCost int            // entries a plain scan of the view would touch
}

// planSelect chooses the cheapest access path for σ(f) over the view.
// Estimates for index paths are global rank-query counts (not clipped to
// the view), so they are upper bounds; the scan baseline is the view
// length.
func planSelect(f filter.Filter, v dirtree.View) sPlan {
	scanCost := v.Len()
	best := sPlan{strategy: stratScan, residual: f, est: scanCost, scanCost: scanCost}
	conjuncts, isAnd := []filter.Filter{f}, false
	if and, ok := f.(filter.And); ok {
		conjuncts, isAnd = and, true
	}
	for i, sub := range conjuncts {
		cand, ok := atomPath(sub, v)
		if !ok {
			continue
		}
		cand.scanCost = scanCost
		if cand.strategy == stratEmpty {
			// One conjunct can match nothing; the whole σ is empty.
			return cand
		}
		if cand.est < best.est {
			if cand.residual == nil { // keepAtom paths preset it to sub
				cand.residual = conjunctsExcept(conjuncts, i, isAnd)
			} else if isAnd {
				cand.residual = f
			}
			best = cand
		}
	}
	return best
}

// atomPath proposes an access path serving one conjunct exactly, or
// reports that the conjunct is not index-servable. A non-nil residual on
// the result means the path over-approximates the conjunct and the atom
// itself must re-run over the candidates (substring with inner/final
// parts).
func atomPath(sub filter.Filter, v dirtree.View) (sPlan, bool) {
	d := v.Directory()
	switch t := sub.(type) {
	case filter.Compare:
		if t.Attr == dirtree.AttrObjectClass {
			// objectClass values are synthesized from the class set; only
			// the class posting lists index them.
			if t.Op == filter.OpEqual {
				return sPlan{strategy: stratClass, class: t.Value, est: len(v.ClassEntries(t.Value))}, true
			}
			return sPlan{}, false
		}
		reg := d.Registry()
		switch t.Op {
		case filter.OpEqual:
			want, err := dirtree.ParseValue(reg.Type(t.Attr), t.Value)
			if err != nil {
				// Equality falls back to raw string comparison on parse
				// errors (filter.Compare); the typed tree cannot serve
				// that.
				return sPlan{}, false
			}
			return sPlan{strategy: stratEq, attr: t.Attr, eq: want, est: d.ValueCount(t.Attr, want)}, true
		case filter.OpGE, filter.OpLE:
			want, err := dirtree.ParseValue(reg.Type(t.Attr), t.Value)
			if err != nil {
				// Range atoms match nothing on a parse error, so the
				// conjunction is statically empty.
				return sPlan{strategy: stratEmpty}, true
			}
			p := sPlan{strategy: stratRange, attr: t.Attr}
			if t.Op == filter.OpGE {
				p.lo = &want
			} else {
				p.hi = &want
			}
			p.est = d.ValueRangeCount(t.Attr, p.lo, p.hi)
			return p, true
		case filter.OpPresent:
			return sPlan{strategy: stratPresent, attr: t.Attr, est: d.ValueRangeCount(t.Attr, nil, nil)}, true
		}
		return sPlan{}, false
	case filter.Substring:
		if t.Attr == dirtree.AttrObjectClass || t.Initial == "" {
			return sPlan{}, false
		}
		n, ok := d.ValuePrefixCount(t.Attr, t.Initial)
		if !ok {
			// Some postings are not text-safe (integers, booleans) and
			// byte-range bounds would miss their rendered forms.
			return sPlan{}, false
		}
		p := sPlan{strategy: stratPrefix, attr: t.Attr, prefix: t.Initial, est: n}
		if len(t.Any) > 0 || t.Final != "" {
			p.residual = sub // prefix over-approximates; re-check the atom
		}
		return p, true
	}
	return sPlan{}, false
}

// conjunctsExcept rebuilds the residual filter: every conjunct but the
// one the access path serves. nil when nothing remains.
func conjunctsExcept(conjuncts []filter.Filter, i int, isAnd bool) filter.Filter {
	if !isAnd || len(conjuncts) == 1 {
		return nil
	}
	rest := make(filter.And, 0, len(conjuncts)-1)
	rest = append(rest, conjuncts[:i]...)
	rest = append(rest, conjuncts[i+1:]...)
	return rest
}

// execute runs the planned path over the view. f is the full filter, for
// the defensive scan fallback.
func (p sPlan) execute(f filter.Filter, v dirtree.View) []*dirtree.Entry {
	d := v.Directory()
	var src []*dirtree.Entry
	switch p.strategy {
	case stratEmpty:
		return nil
	case stratScan:
		src = v.Entries()
	case stratClass:
		src = v.ClassEntries(p.class)
	case stratEq:
		src = v.Filter(d.ValueEntries(p.attr, p.eq))
	case stratRange:
		src = v.Filter(d.ValueRangeEntries(p.attr, p.lo, p.hi))
	case stratPresent:
		src = v.Filter(d.ValueRangeEntries(p.attr, nil, nil))
	case stratPrefix:
		ents, ok := d.ValuePrefixEntries(p.attr, p.prefix)
		if !ok {
			// The tree gained non-text keys between plan and execute;
			// cannot happen under the read-only contract, but fall back
			// to an exact scan rather than miss entries.
			p.residual = f
			src = v.Entries()
			break
		}
		src = v.Filter(ents)
	}
	if p.residual == nil {
		return src
	}
	var out []*dirtree.Entry
	for _, e := range src {
		if p.residual.Matches(e) {
			out = append(out, e)
		}
	}
	return out
}

// label renders the strategy for EXPLAIN output, marking residual
// filtering the way the historical "posting-list+filter" did.
func (p sPlan) label() string {
	if p.residual != nil && p.strategy != stratScan {
		return p.strategy + "+filter"
	}
	return p.strategy
}

// Plan describes the access path chosen for a σ(filter) node — the
// EXPLAIN surface for one atom.
type Plan struct {
	// Strategy is one of scan, posting-list, index-eq, index-range,
	// index-prefix, index-present, empty.
	Strategy string
	// Arg is the class (posting-list) or attribute (index paths) probed.
	Arg string
	// Est is the number of candidate entries the path fetches. For index
	// paths this is an exact rank-query count over the whole directory
	// (an upper bound under sub-instance views); for scan it equals
	// ScanCost.
	Est int
	// ScanCost is the number of entries a plain scan of the view would
	// touch — the baseline the chosen path beat.
	ScanCost int
	// Filtered reports whether a residual filter runs over the
	// candidates.
	Filtered bool
}

func (p sPlan) describe() Plan {
	arg := p.attr
	if p.strategy == stratClass {
		arg = p.class
	}
	// A scan applies the whole filter by definition; Filtered flags only
	// residual filtering on top of an index or posting-list probe.
	return Plan{Strategy: p.strategy, Arg: arg, Est: p.est, ScanCost: p.scanCost,
		Filtered: p.residual != nil && p.strategy != stratScan}
}

// PlanSelect plans σ(f) over a view without executing it.
func PlanSelect(f filter.Filter, v dirtree.View) Plan {
	return planSelect(f, v).describe()
}

// EvalSelect plans and evaluates σ(f) over a single view, returning the
// matching entries in pre-order together with the chosen plan. It is the
// entry point the server's SEARCH uses.
func EvalSelect(f filter.Filter, v dirtree.View) ([]*dirtree.Entry, Plan) {
	if v.IsEmptyView() {
		return nil, Plan{Strategy: stratEmpty}
	}
	p := planSelect(f, v)
	return p.execute(f, v), p.describe()
}
