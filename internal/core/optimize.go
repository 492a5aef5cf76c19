package core

import (
	"boundschema/internal/hquery"
)

// QueryFacts adapts an inference closure to hquery.SchemaFacts, enabling
// the schema-aware query optimization the paper's conclusion sketches
// ("query optimization is facilitated using schema"): on instances legal
// under the schema, guaranteed relationships collapse joins and
// forbidden relationships empty them.
type QueryFacts struct {
	in *Inference
}

// NewQueryFacts derives optimization facts from the schema's closure.
func NewQueryFacts(s *Schema) QueryFacts { return QueryFacts{in: Infer(s)} }

// UnsatClass implements hquery.SchemaFacts.
func (f QueryFacts) UnsatClass(c string) bool {
	id, ok := f.in.ids[c]
	if !ok {
		// A class absent from the schema cannot occur in a legal
		// instance (Definition 2.7's "only object classes mentioned in
		// the schema").
		return !f.in.schema.Classes.IsAux(c)
	}
	return f.in.unsat[id]
}

// Required implements hquery.SchemaFacts.
func (f QueryFacts) Required(ci, axis, cj string) bool {
	ax, err := ParseAxis(axis)
	if err != nil {
		return false
	}
	si, ok1 := f.in.ids[ci]
	ti, ok2 := f.in.ids[cj]
	if !ok1 || !ok2 {
		return false
	}
	return f.in.hasReq(si, ax, ti)
}

// Forbidden implements hquery.SchemaFacts.
func (f QueryFacts) Forbidden(ci, axis, cj string) bool {
	ax, err := ParseAxis(axis)
	if err != nil || !ax.Downward() {
		return false
	}
	ui, ok1 := f.in.ids[ci]
	li, ok2 := f.in.ids[cj]
	if !ok1 || !ok2 {
		return false
	}
	return f.in.hasForb(ui, ax, li)
}

// OptimizeQuery rewrites a hierarchical selection query using the
// schema's guarantees; the result is equivalent on every instance legal
// under the schema.
func OptimizeQuery(q hquery.Query, s *Schema) hquery.Query {
	return hquery.Optimize(q, NewQueryFacts(s))
}
