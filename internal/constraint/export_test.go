package constraint

import "cdb/internal/rational"

// InsertCanon is insert, for the external property test (insert_test.go).
func InsertCanon(j Conjunction, c Constraint) Conjunction { return j.insert(c) }

// BoxOrder is boxOrder, for the external order test (box_test.go).
func BoxOrder(a, b Constraint) int { return boxOrder(a, b) }

// Substitute returns j with variable v replaced by repl in every constraint.
func (j Conjunction) Substitute(v string, repl Expr) Conjunction {
	out := make([]Constraint, 0, len(j.cs))
	for _, c := range j.cs {
		nc := c.Substitute(v, repl)
		if triv, val := nc.IsTrivial(); triv && val {
			continue
		}
		out = append(out, nc)
	}
	return Conjunction{cs: out}
}

// EntailsAll reports whether j entails every constraint of k.
func (j Conjunction) EntailsAll(k Conjunction) bool {
	for _, c := range k.cs {
		if !j.Entails(c) {
			return false
		}
	}
	return true
}

// Equivalent reports whether j and k denote the same set of assignments.
// Both must be satisfiable or both unsatisfiable; satisfiable conjunctions
// are compared by mutual entailment.
func (j Conjunction) Equivalent(k Conjunction) bool {
	js, ks := j.IsSatisfiable(), k.IsSatisfiable()
	if !js || !ks {
		return js == ks
	}
	return j.EntailsAll(k) && k.EntailsAll(j)
}

// Simplify returns an equivalent conjunction with exact duplicates and
// redundant constraints removed. A constraint is redundant if the remaining
// constraints entail it. Unsatisfiable conjunctions simplify to False(), so
// a caller that needs both the decision and the simplified form asks once
// and tests the result with IsFalse.
func (j Conjunction) Simplify() Conjunction {
	return j.SimplifyWith(nil)
}

// Rename returns c with variable old renamed to new.
func (c Constraint) Rename(old, new string) Constraint {
	return Constraint{Expr: c.Expr.Rename(old, new), Op: c.Op}
}

// NumVars returns the number of distinct variables in e.
func (e Expr) NumVars() int { return len(e.terms) }

// Rename returns e with variable old renamed to new: the one-pair case of
// RenameAll.
func (e Expr) Rename(old, new string) Expr {
	return e.RenameAll(map[string]string{old: new})
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x rational.Rat) bool {
	if iv.HasLower {
		c := x.Cmp(iv.Lower)
		if c < 0 || (c == 0 && iv.LowerOpen) {
			return false
		}
	}
	if iv.HasUpper {
		c := x.Cmp(iv.Upper)
		if c > 0 || (c == 0 && iv.UpperOpen) {
			return false
		}
	}
	return true
}
