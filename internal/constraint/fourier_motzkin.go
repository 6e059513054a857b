package constraint

import (
	"slices"
	"sync/atomic"

	"cdb/internal/rational"
)

// This file implements exact Fourier-Motzkin variable elimination, the
// workhorse behind:
//
//   - Conjunction.IsSatisfiable (eliminate everything, check residuals);
//   - Project / Eliminate (the CQA project operator on constraint tuples);
//   - VarBounds (projection onto a single variable yields its exact bounds).
//
// Equalities are eliminated by substitution (Gauss step) before the
// quadratic lower×upper combination step, which both preserves exactness and
// curbs the output size. After each eliminated variable an optional
// redundancy sweep keeps intermediate systems small; see eliminateOpts.

// eliminateOpts tunes the eliminator. The zero value is the default
// production configuration.
type eliminateOpts struct {
	// skipRedundancy disables the per-step redundancy sweep. Exposed for the
	// DESIGN.md ablation benchmark; never set in production paths.
	skipRedundancy bool
}

// Eliminate returns a conjunction over the remaining variables whose
// semantics is the projection of j onto the complement of vars: an
// assignment of the remaining variables satisfies the result iff it can be
// extended to an assignment of vars satisfying j.
//
// If j is unsatisfiable the result is unsatisfiable (False after Simplify).
// A non-empty box (IsBox) is projected by dropping the bounds of vars
// (box.go): nothing is eliminated and the result is canonical.
func (j Conjunction) Eliminate(vars ...string) Conjunction {
	if j.IsBox() {
		return j.dropVars(vars)
	}
	return j.eliminateWith(eliminateOpts{}, vars...)
}

func (j Conjunction) eliminateWith(opts eliminateOpts, vars ...string) Conjunction {
	cs := append([]Constraint{}, j.cs...)
	for _, v := range vars {
		cs = eliminateVar(cs, v)
		if !opts.skipRedundancy && len(cs) > 8 {
			cs = sweepRedundant(cs)
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

// EliminateNoSweep is Eliminate with the per-step redundancy sweep
// disabled. It exists only for the DESIGN.md ablation benchmark that
// quantifies how much the sweep curbs the Fourier-Motzkin output blowup;
// production code paths always sweep.
func (j Conjunction) EliminateNoSweep(vars ...string) Conjunction {
	return j.eliminateWith(eliminateOpts{skipRedundancy: true}, vars...)
}

// Project returns the projection of j onto keep: all other variables are
// eliminated.
func (j Conjunction) Project(keep ...string) Conjunction {
	keepSet := map[string]bool{}
	for _, v := range keep {
		keepSet[v] = true
	}
	var drop []string
	for _, v := range j.Vars() {
		if !keepSet[v] {
			drop = append(drop, v)
		}
	}
	return j.Eliminate(drop...)
}

// eliminateVar removes variable v from the system by substitution (if an
// equality defines v) or by the Fourier-Motzkin combination step.
func eliminateVar(cs []Constraint, v string) []Constraint {
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

// sweepRedundant removes inequalities dominated by a parallel one (same
// canonical normal, weaker bound; an exact duplicate is the limiting case).
// It does not run full entailment (that would recurse into satisfiability);
// it is a cheap but effective guard against the quadratic FM blowup. The
// fold itself is Canon's (foldParallel, canon.go), run on canonical copies;
// the survivors are returned unscaled and in their original order.
func sweepRedundant(cs []Constraint) []Constraint {
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

// decisions counts raw satisfiability runs of the Fourier-Motzkin
// eliminator, process-wide: the cdb_fm_decisions_total metric. What one
// operator sent to the eliminator is counted on its exec.OpRecorder.
var decisions atomic.Int64

// DecisionCount returns the number of raw Fourier-Motzkin satisfiability
// decisions made by this process so far. Monotonic; read deltas.
func DecisionCount() int64 { return decisions.Load() }

// satisfiable decides satisfiability of a conjunction of constraints by
// eliminating every variable and checking the residual trivial constraints.
//
// The elimination order is a function of the system alone (nextVar), so a
// cold decision — what set-up and every cache miss pay — does the same work
// and the same allocations every time it is asked.
func satisfiable(cs []Constraint) bool {
	decisions.Add(1)
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
		k := nextVar(work, vars)
		v := vars[k]
		vars = slices.Delete(vars, k, k+1)
		work = eliminateVar(work, v)
		if len(work) > 8 {
			work = sweepRedundant(work)
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

// nextVar picks the variable of vars (sorted, non-empty) to eliminate from
// cs next and returns its index: a variable some equality defines if there
// is one — the Gauss step substitutes it away and the system shrinks —
// else the one whose Fourier-Motzkin step produces the fewest combinations
// (lower bounds × upper bounds). Ties go to the smaller name.
func nextVar(cs []Constraint, vars []string) int {
	type occurrences struct{ eqs, lowers, uppers int }
	var buf [8]occurrences
	occ := buf[:]
	if len(vars) > len(buf) {
		occ = make([]occurrences, len(vars))
	}
	for _, c := range cs {
		k := 0 // terms and vars are both sorted: one merge walk per atom
		for _, t := range c.Expr.terms {
			for vars[k] != t.Var { // every variable left in cs is still in vars
				k++
			}
			switch {
			case c.Op == Eq:
				occ[k].eqs++
			case t.Coef.Sign() > 0:
				occ[k].uppers++
			default:
				occ[k].lowers++
			}
		}
	}
	best := 0
	for k := range vars {
		if occ[k].eqs > 0 {
			return k
		}
		if occ[k].lowers*occ[k].uppers < occ[best].lowers*occ[best].uppers {
			best = k
		}
	}
	return best
}

// Interval is a (possibly unbounded, possibly open) rational interval.
type Interval struct {
	Lower, Upper         rational.Rat
	HasLower, HasUpper   bool
	LowerOpen, UpperOpen bool
}

// IsPoint reports whether the interval is a single point.
func (iv Interval) IsPoint() bool {
	return iv.HasLower && iv.HasUpper && !iv.LowerOpen && !iv.UpperOpen &&
		iv.Lower.Equal(iv.Upper)
}

// IsEmpty reports whether the interval contains no rationals.
func (iv Interval) IsEmpty() bool {
	if !iv.HasLower || !iv.HasUpper {
		return false
	}
	c := iv.Lower.Cmp(iv.Upper)
	if c > 0 {
		return true
	}
	return c == 0 && (iv.LowerOpen || iv.UpperOpen)
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

// Intersects reports whether the two intervals share at least one
// rational. Open endpoints are exact: [a, b] and [b, c] intersect (the
// rationals are dense, the shared endpoint is a point of both), while
// [a, b) and [b, c] — or any touch where either side is open — do not.
func (iv Interval) Intersects(o Interval) bool {
	if iv.IsEmpty() || o.IsEmpty() {
		return false
	}
	if iv.HasUpper && o.HasLower {
		c := iv.Upper.Cmp(o.Lower)
		if c < 0 || (c == 0 && (iv.UpperOpen || o.LowerOpen)) {
			return false
		}
	}
	if o.HasUpper && iv.HasLower {
		c := o.Upper.Cmp(iv.Lower)
		if c < 0 || (c == 0 && (o.UpperOpen || iv.LowerOpen)) {
			return false
		}
	}
	return true
}

// VarBounds returns the exact range of variable v over the solutions of j,
// computed by projecting j onto v. The second result is false when j is
// unsatisfiable.
func (j Conjunction) VarBounds(v string) (Interval, bool) {
	proj := j.Project(v)
	var iv Interval
	for _, c := range proj.Constraints() {
		if triv, val := c.IsTrivial(); triv {
			if !val {
				return Interval{}, false
			}
			continue
		}
		a := c.Expr.Coef(v)
		// a*v + k OP 0
		k := c.Expr.ConstTerm()
		bound := k.Div(a).Neg() // v OP' -k/a
		switch {
		case c.Op == Eq:
			tightenLower(&iv, bound, false)
			tightenUpper(&iv, bound, false)
		case a.Sign() > 0: // v <= bound (open if Lt)
			tightenUpper(&iv, bound, c.Op == Lt)
		default: // v >= bound
			tightenLower(&iv, bound, c.Op == Lt)
		}
	}
	if iv.IsEmpty() {
		return Interval{}, false
	}
	return iv, true
}

func tightenLower(iv *Interval, b rational.Rat, open bool) {
	if !iv.HasLower || b.Cmp(iv.Lower) > 0 || (b.Equal(iv.Lower) && open) {
		iv.HasLower, iv.Lower, iv.LowerOpen = true, b, open
	}
}

func tightenUpper(iv *Interval, b rational.Rat, open bool) {
	if !iv.HasUpper || b.Cmp(iv.Upper) < 0 || (b.Equal(iv.Upper) && open) {
		iv.HasUpper, iv.Upper, iv.UpperOpen = true, b, open
	}
}
