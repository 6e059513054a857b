package constraint

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"cdb/internal/rational"
)

// This file implements exact Fourier-Motzkin variable elimination, the
// workhorse behind Conjunction.IsSatisfiable and VarBounds (eliminate all
// but one variable, read its interval) and Project / Eliminate (the CQA
// project operator on constraint tuples). All three run one loop,
// eliminate. Equalities go first, by substitution (Gauss step): nextVar
// picks a variable some equality defines whenever there is one, and a
// lower×upper combination never makes an equality. The combination steps
// then keep Chernikov's history bound, the one redundancy rule: every
// inequality row carries the set of post-Gauss inequalities it was
// combined from, and after k combination steps a combination whose set
// would have more than k + 1 members is implied by the rows kept, so it is
// never built.

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
	drop := slices.Clone(vars)
	slices.Sort(drop)
	rows, _, ok := eliminate(j.cs, slices.Compact(drop), 0)
	if !ok {
		return False()
	}
	return And(rows...)
}

// Project returns the projection of j onto keep: all other variables are
// eliminated.
func (j Conjunction) Project(keep ...string) Conjunction {
	return j.Eliminate(varsBut(j, keep...)...)
}

// varsOf adds the variables of cs to the sorted set vars. Systems are
// small: a sorted slice, no map.
func varsOf(cs []Constraint, vars []string) []string {
	for _, c := range cs {
		for _, t := range c.Expr.terms {
			if i, found := slices.BinarySearch(vars, t.Var); !found {
				vars = slices.Insert(vars, i, t.Var)
			}
		}
	}
	return vars
}

// varsBut returns j's variables, sorted, without those of keep.
func varsBut(j Conjunction, keep ...string) []string {
	return slices.DeleteFunc(j.Vars(), func(v string) bool { return slices.Contains(keep, v) })
}

// eliminate removes variables from cs until left of vars (sorted) remain,
// in nextVar's order, and returns the rows and the variables left. ok is
// false when a step made a constant row that is false. cs is not modified.
func eliminate(cs []Constraint, vars []string, left int) (rows []Constraint, kept []string, ok bool) {
	rows = cs
	var hist []uint64 // row i's history: hist[i*w : (i+1)*w]; built at the first combination step
	w, steps := 0, 0
	for len(vars) > left {
		k, occ := nextVar(rows, vars)
		v := vars[k]
		vars = slices.Delete(vars, k, k+1)
		switch {
		case occ.eqs > 0:
			// nextVar puts every Gauss step first, and a combination
			// makes no equality: hist is still nil here.
			if rows, ok = substitute(rows, v); !ok {
				return nil, nil, false
			}
			continue
		case occ.lowers+occ.uppers == 0: // substituted away
			continue
		case hist == nil:
			w = (len(rows) + 63) / 64
			hist = make([]uint64, len(rows)*w)
			for i := range rows { // an equality left here is never combined
				hist[i*w+i/64] = 1 << (i % 64)
			}
		}
		steps++
		if rows, hist, ok = combine(rows, hist, w, v, steps+1); !ok {
			return nil, nil, false
		}
	}
	return rows, vars, true
}

// substitute is the Gauss step: an equality of rows defines v, and v is
// replaced by its definition everywhere else. Rows that become trivially
// true go; ok is false when one becomes trivially false.
func substitute(rows []Constraint, v string) (out []Constraint, ok bool) {
	i := slices.IndexFunc(rows, func(c Constraint) bool { return c.Op == Eq && c.Expr.HasVar(v) })
	// a*v + rest = 0  =>  v = -rest/a
	a := rows[i].Expr.Coef(v)
	repl := rows[i].Expr.Sub(Var(v).Scale(a)).Scale(a.Inv().Neg())
	out = make([]Constraint, 0, len(rows)-1)
	for k, d := range rows {
		if k == i {
			continue
		}
		nd := d.Substitute(v, repl)
		if triv, val := nd.IsTrivial(); triv {
			if !val {
				return nil, false
			}
			continue
		}
		out = append(out, nd)
	}
	return out, true
}

// combine is the Fourier-Motzkin step on v: rows without v stay, and every
// lower bound (coefficient < 0) is combined with every upper bound
// (coefficient > 0) when their histories together have at most limit
// members. hist holds w words per row; the result's histories are the
// unions. Trivially true combinations go; ok is false when one is
// trivially false.
func combine(rows []Constraint, hist []uint64, w int, v string, limit int) (out []Constraint, outHist []uint64, ok bool) {
	var lbuf, ubuf [16]int
	lowers, uppers := lbuf[:0], ubuf[:0]
	for i, c := range rows {
		if a := c.Expr.Coef(v); a.Sign() > 0 {
			uppers = append(uppers, i)
		} else if a.Sign() < 0 {
			lowers = append(lowers, i)
		}
	}
	out = make([]Constraint, 0, len(rows))
	outHist = make([]uint64, 0, len(rows)*w)
	for i, c := range rows {
		if !c.Expr.HasVar(v) {
			out = append(out, c)
			outHist = append(outHist, hist[i*w:(i+1)*w]...)
		}
	}
	for _, l := range lowers {
		lo := rows[l]
		al := lo.Expr.Coef(v) // < 0
		for _, u := range uppers {
			members := 0
			for x := 0; x < w; x++ {
				members += bits.OnesCount64(hist[l*w+x] | hist[u*w+x])
			}
			if members > limit {
				continue
			}
			// (-al)*up + au*lo eliminates v; both multipliers positive so
			// inequality directions are preserved.
			up := rows[u]
			au := up.Expr.Coef(v) // > 0
			nc := Constraint{Expr: up.Expr.Scale(al.Neg()).Add(lo.Expr.Scale(au)), Op: Le}
			if lo.Op == Lt || up.Op == Lt {
				nc.Op = Lt
			}
			if triv, val := nc.IsTrivial(); triv {
				if !val {
					return nil, nil, false
				}
				continue
			}
			out = append(out, nc)
			for x := 0; x < w; x++ {
				outHist = append(outHist, hist[l*w+x]|hist[u*w+x])
			}
		}
	}
	return out, outHist, true
}

// decisions counts raw satisfiability runs of the Fourier-Motzkin
// eliminator, process-wide: the cdb_fm_decisions_total metric. What one
// operator sent to the eliminator is counted on its exec.OpRecorder.
var decisions atomic.Int64

// DecisionCount returns the number of raw Fourier-Motzkin satisfiability
// decisions made by this process so far. Monotonic; read deltas.
func DecisionCount() int64 { return decisions.Load() }

// satisfiable decides satisfiability of a conjunction of constraints: it
// eliminates every variable but one and reads that variable's interval off
// the rows left. The system is unsatisfiable iff the interval is empty or a
// constant row is false.
//
// The elimination order is a function of the system alone (nextVar), so a
// cold decision — what set-up and every cache miss pay — does the same work
// and the same allocations every time it is asked.
func satisfiable(cs []Constraint) bool {
	decisions.Add(1)
	var buf [8]string
	rows, left, ok := eliminate(cs, varsOf(cs, buf[:0]), 1)
	if !ok {
		return false
	}
	var v string // no variable at all: only constant rows are left
	if len(left) == 1 {
		v = left[0]
	}
	_, ok = interval(rows, v)
	return ok
}

// occurrences counts the rows a variable occurs in, by kind.
type occurrences struct{ eqs, lowers, uppers int }

// nextVar picks the variable of vars (sorted, non-empty) to eliminate from
// cs next and returns its index and occurrences: a variable some equality
// defines if there is one — the Gauss step substitutes it away and the
// system shrinks — else the one whose Fourier-Motzkin step produces the
// fewest combinations (lower bounds × upper bounds). Ties go to the smaller
// name. Variables of cs outside vars are skipped.
func nextVar(cs []Constraint, vars []string) (int, occurrences) {
	var buf [8]occurrences
	occ := buf[:]
	if len(vars) > len(buf) {
		occ = make([]occurrences, len(vars))
	}
	for _, c := range cs {
		for _, t := range c.Expr.terms {
			k, found := slices.BinarySearch(vars, t.Var)
			if !found {
				continue
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
			return k, occ[k]
		}
		if occ[k].lowers*occ[k].uppers < occ[best].lowers*occ[best].uppers {
			best = k
		}
	}
	return best, occ[best]
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

// VarBounds returns the exact range of variable v over the solutions of j:
// every other variable is eliminated and v's interval read off the rows
// left. The second result is false when j is unsatisfiable.
func (j Conjunction) VarBounds(v string) (Interval, bool) {
	rows, _, ok := eliminate(j.cs, varsBut(j, v), 0)
	if !ok {
		return Interval{}, false
	}
	return interval(rows, v)
}

// interval reads the interval of v off rows in which no other variable
// occurs. The second result is false when a constant row is false or the
// interval is empty.
func interval(rows []Constraint, v string) (Interval, bool) {
	var iv Interval
	for _, c := range rows {
		a := c.Expr.Coef(v)
		if a.IsZero() {
			if _, val := c.IsTrivial(); !val {
				return Interval{}, false
			}
			continue
		}
		// a*v + k OP 0
		bound := c.Expr.ConstTerm().Div(a).Neg() // v OP' -k/a
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
