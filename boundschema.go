// Package boundschema implements bounding-schemas for LDAP directories,
// reproducing "On Bounding-Schemas for LDAP Directories" (Amer-Yahia,
// Jagadish, Lakshmanan, Srivastava — EDBT 2000).
//
// A bounding-schema constrains directory instances from both sides
// without sacrificing LDAP's flexibility: lower bounds (required
// attributes, required classes, required structural relationships) and
// upper bounds (allowed attributes, single inheritance with auxiliary
// classes, forbidden structural relationships). The package provides:
//
//   - the schema and instance model (Section 2);
//   - legality testing via a reduction to hierarchical selection queries,
//     linear in the instance size (Section 3, Theorem 3.1);
//   - incremental legality testing under subtree updates (Section 4,
//     Figure 5, Theorems 4.1/4.2) through the transaction applier;
//   - schema-consistency testing by a polynomial inference-system closure
//     (Section 5, Theorem 5.2), plus a constructive witness materializer;
//   - a textual schema definition language and LDIF instance I/O;
//   - the Section 6.3 extension to semi-structured data (package
//     internal/semistruct).
//
// Quick start:
//
//	schema, _, err := boundschema.ParseSchema(src)
//	dir, err := boundschema.ReadLDIF(file, schema.Registry)
//	report := boundschema.Check(schema, dir)
//	if !report.Legal() { ... }
//
// Updates that must preserve legality go through an Applier:
//
//	app := boundschema.NewApplier(schema)
//	tx := &boundschema.Transaction{}
//	tx.Add("uid=new,ou=eng,o=corp", []string{"person", "top"}, attrs)
//	report, err := app.Apply(dir, tx)   // rolls back on violation
package boundschema

import (
	"io"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/ldif"
	"boundschema/internal/schemadsl"
	"boundschema/internal/txn"
)

// Re-exported model types. The aliases make the internal packages' types
// part of the public API without duplicating them.
type (
	// Schema is a bounding-schema (Definition 2.5).
	Schema = core.Schema
	// AttributeSchema holds required/allowed attributes per class.
	AttributeSchema = core.AttributeSchema
	// ClassSchema holds the core hierarchy and auxiliary classes.
	ClassSchema = core.ClassSchema
	// StructureSchema holds required classes and required/forbidden
	// structural relationships.
	StructureSchema = core.StructureSchema
	// Axis is a hierarchical direction (child/descendant/parent/ancestor).
	Axis = core.Axis
	// Element is a schema element in the sense of Definition 2.6.
	Element = core.Element
	// RequiredClass, RequiredRel, ForbiddenRel, Subclass and Disjoint are
	// the concrete element kinds.
	RequiredClass = core.RequiredClass
	RequiredRel   = core.RequiredRel
	ForbiddenRel  = core.ForbiddenRel
	Subclass      = core.Subclass
	Disjoint      = core.Disjoint
	// Checker tests instance legality against one schema.
	Checker = core.Checker
	// Report lists legality violations; an empty report means legal.
	Report = core.Report
	// Violation is one legality defect.
	Violation = core.Violation
	// ViolationKind names the Definition 2.7 condition a Violation breaks.
	ViolationKind = core.ViolationKind
	// ConsistencyResult is the Section 5 verdict.
	ConsistencyResult = core.ConsistencyResult
	// EvolutionPlan classifies schema changes by the revalidation they
	// demand (Section 6.2).
	EvolutionPlan = core.EvolutionPlan
	// EvolutionStep is one classified schema change.
	EvolutionStep = core.EvolutionStep

	// Directory is a directory instance (forest of entries).
	Directory = dirtree.Directory
	// Entry is a directory entry.
	Entry = dirtree.Entry
	// Value is a typed attribute value.
	Value = dirtree.Value
	// Registry is the attribute typing function τ.
	Registry = dirtree.Registry

	// Transaction is a sequence of entry insertions and deletions.
	Transaction = txn.Transaction
	// Applier applies transactions while preserving legality.
	Applier = txn.Applier
)

// Axis values.
const (
	AxisChild  = core.AxisChild
	AxisDesc   = core.AxisDesc
	AxisParent = core.AxisParent
	AxisAnc    = core.AxisAnc
)

// ViolationKind values: the content-schema kinds (per entry), then the
// structure-schema kinds (instance-wide).
const (
	ViolationTyping         = core.ViolationTyping
	ViolationMissingAttr    = core.ViolationMissingAttr
	ViolationDisallowedAttr = core.ViolationDisallowedAttr
	ViolationUnknownClass   = core.ViolationUnknownClass
	ViolationNoCoreClass    = core.ViolationNoCoreClass
	ViolationInheritance    = core.ViolationInheritance
	ViolationIncomparable   = core.ViolationIncomparable
	ViolationDisallowedAux  = core.ViolationDisallowedAux
	ViolationDuplicateKey   = core.ViolationDuplicateKey
	ViolationMissingClass   = core.ViolationMissingClass
	ViolationRequiredRel    = core.ViolationRequiredRel
	ViolationForbiddenRel   = core.ViolationForbiddenRel
)

// ClassTop is the root of every core class hierarchy.
const ClassTop = core.ClassTop

// NewSchema returns an empty bounding-schema.
func NewSchema() *Schema { return core.NewSchema() }

// NewDirectory returns an empty directory instance typed by reg (which
// may be nil for all-string attributes).
func NewDirectory(reg *Registry) *Directory { return dirtree.New(reg) }

// NewRegistry returns an attribute registry with objectClass predeclared.
func NewRegistry() *Registry { return dirtree.NewRegistry() }

// String, Int, Bool, DN and Tel construct typed attribute values.
func String(s string) Value { return dirtree.String(s) }
func Int(i int64) Value     { return dirtree.Int(i) }
func Bool(b bool) Value     { return dirtree.Bool(b) }
func DN(dn string) Value    { return dirtree.DN(dn) }
func Tel(num string) Value  { return dirtree.Tel(num) }

// NewChecker returns a legality checker for the schema.
func NewChecker(s *Schema) *Checker { return core.NewChecker(s) }

// Check tests full legality of d against s (Definition 2.7): per-entry
// content checks plus the query-based structure checks of Section 3.
func Check(s *Schema, d *Directory) *Report { return core.NewChecker(s).Check(d) }

// Legal reports whether d is legal w.r.t. s: the verdict of Check.
func Legal(s *Schema, d *Directory) bool { return core.NewChecker(s).Legal(d) }

// CheckConsistency decides whether the schema admits any legal instance
// (Section 5, Theorem 5.2) in time polynomial in the schema size.
func CheckConsistency(s *Schema) ConsistencyResult { return core.CheckConsistency(s) }

// Materialize constructs a legal witness instance for a consistent
// schema.
func Materialize(s *Schema) (*Directory, error) { return core.Materialize(s) }

// NewApplier returns a transaction applier using the Figure 5
// incremental checks, required-class counts and Section 6.1 key
// uniqueness, all read off the directory's own indexes. The schema must
// not change afterwards.
func NewApplier(s *Schema) *Applier { return txn.NewApplier(s) }

// PlanEvolution classifies the differences between two schemas by the
// revalidation each demands on instances legal under the old schema
// (Section 6.2: many evolutions are "lightweight").
func PlanEvolution(old, new *Schema) *EvolutionPlan { return core.PlanEvolution(old, new) }

// CheckEvolution verifies an old-legal instance against the new schema,
// running only the checks the plan demands.
func CheckEvolution(new *Schema, d *Directory, plan *EvolutionPlan) *Report {
	return core.CheckEvolution(new, d, plan)
}

// Lint reports schema quality findings: unsatisfiable or unused classes,
// orphan auxiliaries, and structure elements derivable from the rest of
// the schema.
func Lint(s *Schema) []core.LintFinding { return core.Lint(s) }

// ParseSchema parses a schema written in the definition language
// (internal/schemadsl); it returns the schema and its declared name.
func ParseSchema(src string) (*Schema, string, error) { return schemadsl.Parse(src) }

// FormatSchema renders a schema in the definition language.
func FormatSchema(s *Schema, name string) string { return schemadsl.Format(s, name) }

// ReadLDIF loads a directory instance from LDIF content records.
func ReadLDIF(r io.Reader, reg *Registry) (*Directory, error) {
	return ldif.ReadDirectory(r, reg)
}

// WriteLDIF serializes a directory instance as LDIF content records.
func WriteLDIF(w io.Writer, d *Directory) error { return ldif.WriteDirectory(w, d) }
