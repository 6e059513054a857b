// Package constraint implements the rational linear constraint engine that
// underlies CQA/CDB — the §2.2 choice of rational linear constraints as the
// constraint class, and the decision procedures that make the §2.5 closure
// principle effective for every algebra operator.
//
// The package provides:
//
//   - Expr: linear expressions sum(coef_i * var_i) + const over exact
//     rationals;
//   - Constraint: atomic linear constraints Expr OP 0 with OP in {=, <=, <};
//   - Conjunction: a constraint tuple in the sense of Kanellakis, Kuper and
//     Revesz — a finite conjunction of atomic constraints whose semantics is
//     the (possibly infinite) set of variable assignments satisfying it;
//   - exact decision procedures: satisfiability, entailment and equivalence
//     via Fourier-Motzkin elimination;
//   - projection (variable elimination), the engine behind CQA's project
//     operator;
//   - an independent exact rational simplex used for optimisation (bounding
//     boxes, extrema) and as a cross-check of the Fourier-Motzkin results;
//   - complementation into disjunctive normal form, the engine behind CQA's
//     difference operator.
//
// Everything operates over exact rationals (package rational); there is no
// floating point anywhere on a decision path.
package constraint

import (
	"fmt"
	"sort"

	"cdb/internal/rational"
)

// Term is one coefficient-variable pair of a linear expression.
type Term struct {
	Var  string
	Coef rational.Rat
}

// Expr is an immutable linear expression: sum of terms plus a constant.
// The zero value is the expression 0.
//
// Invariants: terms are sorted by variable name, contain no duplicates, and
// contain no zero coefficients.
type Expr struct {
	terms []Term
	c     rational.Rat
}

// NewExpr builds an expression from arbitrary terms and a constant.
// Duplicate variables are summed; zero coefficients are dropped.
func NewExpr(terms []Term, constant rational.Rat) Expr {
	m := make(map[string]rational.Rat, len(terms))
	for _, t := range terms {
		m[t.Var] = m[t.Var].Add(t.Coef)
	}
	out := make([]Term, 0, len(m))
	for v, c := range m {
		if !c.IsZero() {
			out = append(out, Term{Var: v, Coef: c})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Var < out[j].Var })
	return Expr{terms: out, c: constant}
}

// SortedExpr is NewExpr for terms that already satisfy Expr's invariants —
// variables strictly ascending, no zero coefficient — which it checks
// (ok=false otherwise) instead of establishing, so nothing is allocated. It
// takes ownership of terms.
func SortedExpr(terms []Term, constant rational.Rat) (e Expr, ok bool) {
	for i, t := range terms {
		if t.Coef.IsZero() || (i > 0 && terms[i-1].Var >= t.Var) {
			return Expr{}, false
		}
	}
	return Expr{terms: terms, c: constant}, true
}

// Var returns the expression consisting of the single variable v.
func Var(v string) Expr {
	return Expr{terms: []Term{{Var: v, Coef: rational.One}}}
}

// Const returns the constant expression c.
func Const(c rational.Rat) Expr { return Expr{c: c} }

// ConstInt returns the constant expression n.
func ConstInt(n int64) Expr { return Const(rational.FromInt(n)) }

// Add returns e + f.
func (e Expr) Add(f Expr) Expr {
	out := make([]Term, 0, len(e.terms)+len(f.terms))
	i, j := 0, 0
	for i < len(e.terms) && j < len(f.terms) {
		a, b := e.terms[i], f.terms[j]
		switch {
		case a.Var < b.Var:
			out = append(out, a)
			i++
		case a.Var > b.Var:
			out = append(out, b)
			j++
		default:
			if s := a.Coef.Add(b.Coef); !s.IsZero() {
				out = append(out, Term{Var: a.Var, Coef: s})
			}
			i++
			j++
		}
	}
	out = append(out, e.terms[i:]...)
	out = append(out, f.terms[j:]...)
	return Expr{terms: out, c: e.c.Add(f.c)}
}

// Sub returns e - f.
func (e Expr) Sub(f Expr) Expr { return e.Add(f.Scale(rational.FromInt(-1))) }

// Neg returns -e.
func (e Expr) Neg() Expr { return e.Scale(rational.FromInt(-1)) }

// Scale returns k * e.
func (e Expr) Scale(k rational.Rat) Expr {
	if k.IsZero() {
		return Expr{}
	}
	out := make([]Term, len(e.terms))
	for i, t := range e.terms {
		out[i] = Term{Var: t.Var, Coef: t.Coef.Mul(k)}
	}
	return Expr{terms: out, c: e.c.Mul(k)}
}

// AddConst returns e + k.
func (e Expr) AddConst(k rational.Rat) Expr {
	return Expr{terms: e.terms, c: e.c.Add(k)}
}

// Coef returns the coefficient of variable v (zero if absent).
func (e Expr) Coef(v string) rational.Rat {
	i := sort.Search(len(e.terms), func(i int) bool { return e.terms[i].Var >= v })
	if i < len(e.terms) && e.terms[i].Var == v {
		return e.terms[i].Coef
	}
	return rational.Zero
}

// ConstTerm returns the constant term of e.
func (e Expr) ConstTerm() rational.Rat { return e.c }

// Terms returns the terms of e in variable order. The result must not be
// mutated.
func (e Expr) Terms() []Term { return e.terms }

// IsConst reports whether e has no variables.
func (e Expr) IsConst() bool { return len(e.terms) == 0 }

// HasVar reports whether variable v occurs in e.
func (e Expr) HasVar(v string) bool { return !e.Coef(v).IsZero() }

// Vars returns the variables of e in sorted order.
func (e Expr) Vars() []string {
	out := make([]string, len(e.terms))
	for i, t := range e.terms {
		out[i] = t.Var
	}
	return out
}

// Eval evaluates e under the given assignment. Missing variables evaluate
// as an error.
func (e Expr) Eval(assign map[string]rational.Rat) (rational.Rat, error) {
	sum := e.c
	for _, t := range e.terms {
		v, ok := assign[t.Var]
		if !ok {
			return rational.Zero, fmt.Errorf("constraint: unbound variable %q", t.Var)
		}
		sum = sum.Add(t.Coef.Mul(v))
	}
	return sum, nil
}

// Substitute returns e with every occurrence of v replaced by repl.
func (e Expr) Substitute(v string, repl Expr) Expr {
	c := e.Coef(v)
	if c.IsZero() {
		return e
	}
	// e = c*v + rest  ->  c*repl + rest
	rest := make([]Term, 0, len(e.terms)-1)
	for _, t := range e.terms {
		if t.Var != v {
			rest = append(rest, t)
		}
	}
	return Expr{terms: rest, c: e.c}.Add(repl.Scale(c))
}

// RenameAll returns e with every variable that m names replaced by its
// image, all at once — {x: y, y: x} swaps. It panics if two variables of e
// end up under one name (renaming must not merge variables silently).
func (e Expr) RenameAll(m map[string]string) Expr {
	terms := make([]Term, len(e.terms))
	for i, t := range e.terms {
		if to, ok := m[t.Var]; ok {
			t.Var = to
		}
		terms[i] = t
	}
	out := NewExpr(terms, e.c)
	if len(out.terms) != len(terms) {
		panic(fmt.Sprintf("constraint: rename %v would merge variables of %s", m, e))
	}
	return out
}

// Equal reports whether e and f are identical expressions (same terms and
// constant).
func (e Expr) Equal(f Expr) bool {
	if len(e.terms) != len(f.terms) || !e.c.Equal(f.c) {
		return false
	}
	for i := range e.terms {
		if e.terms[i].Var != f.terms[i].Var || !e.terms[i].Coef.Equal(f.terms[i].Coef) {
			return false
		}
	}
	return true
}

// String renders e in human-readable form, e.g. "2x + 3/2y - 5".
func (e Expr) String() string {
	var buf [64]byte
	return string(e.appendTo(buf[:0]))
}

// appendTo appends the String rendering of e to b.
func (e Expr) appendTo(b []byte) []byte {
	if len(e.terms) == 0 {
		return e.c.AppendTo(b)
	}
	for i, t := range e.terms {
		coef := t.Coef
		neg := coef.Sign() < 0
		if neg {
			coef = coef.Neg()
		}
		switch {
		case i == 0 && neg:
			b = append(b, '-')
		case i == 0:
		case neg:
			b = append(b, " - "...)
		default:
			b = append(b, " + "...)
		}
		if !coef.Equal(rational.One) {
			b = coef.AppendTo(b)
		}
		b = append(b, t.Var...)
	}
	switch e.c.Sign() {
	case -1:
		b = append(b, " - "...)
		b = e.c.Neg().AppendTo(b)
	case 1:
		b = append(b, " + "...)
		b = e.c.AppendTo(b)
	}
	return b
}
