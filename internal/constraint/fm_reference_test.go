package constraint

// The Fourier–Motzkin eliminator before the history bound, kept verbatim as
// the test oracle of the one it became: two loops (a decision and a
// projection), each eliminating every variable by a Gauss step or an
// unbounded combination step, with a parallel-row sweep after every step
// that leaves more than eight rows. The property and equivalence tests
// compare the eliminator with these; BenchmarkAblationFMHistoryBound times
// them against each other. Their cost is doubly exponential on dense
// systems: never run them beyond 5 × 13 (datagen.DenseSystem).

import "slices"

// referenceSatisfiable is the former satisfiable (without its decision
// count).
func referenceSatisfiable(cs []Constraint) bool {
	// Collect the variables, sorted, without a map: systems are small.
	var buf [8]string
	vars := buf[:0]
	for _, c := range cs {
		for _, t := range c.Expr.terms {
			if i, found := slices.BinarySearch(vars, t.Var); !found {
				vars = slices.Insert(vars, i, t.Var)
			}
		}
	}
	work := append([]Constraint{}, cs...)
	for len(vars) > 0 {
		k, _ := nextVar(work, vars)
		v := vars[k]
		vars = slices.Delete(vars, k, k+1)
		work = referenceEliminateVar(work, v)
		if len(work) > 8 {
			work = referenceSweepRedundant(work)
		}
		for _, c := range work {
			if triv, val := c.IsTrivial(); triv && !val {
				return false
			}
		}
	}
	for _, c := range work {
		if triv, val := c.IsTrivial(); triv && !val {
			return false
		}
	}
	return true
}

// referenceEliminate is the former Eliminate: the variables go in the
// caller's order.
func referenceEliminate(j Conjunction, vars ...string) Conjunction {
	if j.IsBox() {
		return j.dropVars(vars)
	}
	cs := append([]Constraint{}, j.cs...)
	for _, v := range vars {
		cs = referenceEliminateVar(cs, v)
		if len(cs) > 8 {
			cs = referenceSweepRedundant(cs)
		}
		// Early exit: a trivially false residual makes everything false.
		for _, c := range cs {
			if triv, val := c.IsTrivial(); triv && !val {
				return False()
			}
		}
	}
	return And(cs...)
}

// referenceEliminateVar is the former eliminateVar: it removes variable v
// from the system by substitution (if an equality defines v) or by the
// Fourier-Motzkin combination step.
func referenceEliminateVar(cs []Constraint, v string) []Constraint {
	// Gauss step: find an equality containing v and substitute.
	for i, c := range cs {
		if c.Op == Eq {
			a := c.Expr.Coef(v)
			if !a.IsZero() {
				// a*v + rest = 0  =>  v = -rest/a
				rest := c.Expr.Sub(Var(v).Scale(a))
				repl := rest.Scale(a.Inv().Neg())
				out := make([]Constraint, 0, len(cs)-1)
				for k, d := range cs {
					if k == i {
						continue
					}
					nd := d.Substitute(v, repl)
					if triv, val := nd.IsTrivial(); triv && val {
						continue
					}
					out = append(out, nd)
				}
				return out
			}
		}
	}

	// Fourier-Motzkin step: partition into lower bounds (coef<0), upper
	// bounds (coef>0) and constraints not involving v.
	var lowers, uppers, rest []Constraint
	for _, c := range cs {
		a := c.Expr.Coef(v)
		switch {
		case a.IsZero():
			rest = append(rest, c)
		case a.Sign() > 0:
			uppers = append(uppers, c)
		default:
			lowers = append(lowers, c)
		}
	}
	out := rest
	for _, lo := range lowers {
		al := lo.Expr.Coef(v) // < 0
		for _, up := range uppers {
			au := up.Expr.Coef(v) // > 0
			// (-al)*up + au*lo eliminates v; both multipliers positive so
			// inequality directions are preserved.
			comb := up.Expr.Scale(al.Neg()).Add(lo.Expr.Scale(au))
			op := Le
			if lo.Op == Lt || up.Op == Lt {
				op = Lt
			}
			nc := Constraint{Expr: comb, Op: op}
			if triv, val := nc.IsTrivial(); triv && val {
				continue
			}
			out = append(out, nc)
		}
	}
	return out
}

// referenceSweepRedundant is the former sweepRedundant: it removes
// inequalities dominated by a parallel one (same canonical normal, weaker
// bound; an exact duplicate is the limiting case). The fold itself is
// Canon's (foldParallel, canon.go), run on canonical copies; the survivors
// are returned unscaled and in their original order.
func referenceSweepRedundant(cs []Constraint) []Constraint {
	canon := make([]Constraint, len(cs))
	for i, c := range cs {
		if c.Op != Eq { // equalities are not folded; spare them the scaling
			c = c.Canonical()
		}
		canon[i] = c
	}
	dominated := foldParallel(canon, hashTerms)
	out := make([]Constraint, 0, len(cs))
	for i, c := range cs {
		if !dominated[i] {
			out = append(out, c)
		}
	}
	return out
}
