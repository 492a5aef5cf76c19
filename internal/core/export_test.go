package core

// Exposed to package core_test, whose tests feed these the workload
// package's schemas.
var (
	CheckDerivations = checkDerivations
	InferWith        = inferWith
	Implies          = implies
	Satisfies        = satisfies
)

type InferOptions = inferOptions

const ClassNone = classNone

// Content reports whether the kind is a per-entry content-schema
// violation (testable entry by entry, Section 3.1).
func (k ViolationKind) Content() bool { return k <= ViolationDisallowedAux }

func (in *Inference) Inconsistent() bool           { return in.inconsistent() }
func (in *Inference) Explain(el Element) string    { return in.explain(el) }
func (in *Inference) ExplainInconsistency() string { return in.explainInconsistency() }
