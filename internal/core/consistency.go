package core

// ConsistencyResult is the outcome of the Section 5 analysis.
type ConsistencyResult struct {
	// Consistent reports Theorem 5.2's verdict: the schema admits at
	// least one legal instance iff Exists(∅) is not derivable.
	Consistent bool
	// Explanation is the derivation of Exists(∅) when inconsistent.
	Explanation string
	// Facts is the number of facts in the closed element database, the
	// size measure of the polynomial bound.
	Facts int
	// Unsatisfiable lists classes the closure proves can have no entries
	// in any legal instance. A schema can be consistent while some of its
	// classes are unsatisfiable, as long as none of them is required.
	Unsatisfiable []string
}

// CheckConsistency decides whether the schema is consistent (admits a
// legal instance) by closing its class and structure elements under the
// inference system of Figures 6 and 7 and testing for the Exists(∅)
// marker (Theorem 5.2). The decision is polynomial in the schema size.
func CheckConsistency(s *Schema) ConsistencyResult {
	in := Infer(s)
	res := ConsistencyResult{
		Consistent: !in.inconsistent(),
		Facts:      in.NumFacts(),
	}
	if in.inconsistent() {
		res.Explanation = in.explainInconsistency()
	}
	for _, c := range s.Classes.CoreClasses() {
		if in.unsatisfiable(c) {
			res.Unsatisfiable = append(res.Unsatisfiable, c)
		}
	}
	return res
}

// Consistent is shorthand for CheckConsistency(s).Consistent.
func (s *Schema) Consistent() bool { return !Infer(s).inconsistent() }
