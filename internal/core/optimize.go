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
	in      *Inference
	classes *ClassSchema
}

// NewQueryFacts derives optimization facts from the schema's closure.
func NewQueryFacts(s *Schema) QueryFacts { return QueryFacts{in: Infer(s), classes: s.Classes} }

// UnsatClass implements hquery.SchemaFacts. A class absent from the
// schema cannot occur in a legal instance either (Definition 2.7's "only
// object classes mentioned in the schema").
func (f QueryFacts) UnsatClass(c string) bool {
	return f.in.Unsatisfiable(c) || !f.classes.Declared(c)
}

// Required implements hquery.SchemaFacts.
func (f QueryFacts) Required(ci, axis, cj string) bool {
	ax, err := ParseAxis(axis)
	return err == nil && f.in.implies(RequiredRel{Source: ci, Axis: ax, Target: cj})
}

// Forbidden implements hquery.SchemaFacts.
func (f QueryFacts) Forbidden(ci, axis, cj string) bool {
	ax, err := ParseAxis(axis)
	return err == nil && f.in.implies(ForbiddenRel{Upper: ci, Axis: ax, Lower: cj})
}

// OptimizeQuery rewrites a hierarchical selection query using the
// schema's guarantees; the result is equivalent on every instance legal
// under the schema.
func OptimizeQuery(q hquery.Query, s *Schema) hquery.Query {
	return hquery.Optimize(q, NewQueryFacts(s))
}
