package constraint

import (
	"sync"

	"cdb/internal/rational"
)

// This file implements the axis-aligned envelope of a conjunction — the
// cheap bounding box behind the filter stage of the binary CQA operators'
// filter-and-refine split (package cqa). The expensive refine step
// (Merge+Canon plus a Fourier-Motzkin satisfiability decision per tuple
// pair) is exactly the quantifier-elimination cost the CDB literature
// identifies as the evaluation bottleneck; the envelope lets the pairing
// layer reject most non-interacting pairs in O(shared variables) rational
// comparisons without ever running the eliminator.
//
// The envelope bounds each variable by what the atoms imply about it on
// their own and through each other. The single-variable atoms bound it
// directly (a·v + k OP 0 bounds v at -k/a). Then, when the conjunction
// also has multi-variable atoms, a fixed number of interval propagation
// passes (envelopePasses) read them against the bounds so far: for
// Σ aᵢvᵢ + k OP 0, every solution has aⱼvⱼ ≤ -k - Σ_{i≠j} min(aᵢvᵢ), the
// minimum taken over the current intervals, and an = atom gives the
// mirrored bound from the max side too. A moving object's segment,
// x = x0 + s·(t - t0) with t in [t0, t1], so gets its x range. Every
// bound the passes derive is closed, even from a strict atom or an open
// interval: a closed bound is weaker than the strict one it stands for,
// and each derived bound holds for every solution, so it may only widen
// what a finer reading would give. A variable no atom bounds this way
// stays unbounded, i.e. (-∞, +∞), and a conjunction of multi-variable
// atoms alone bounds nothing. The passes are a constant, not a fixpoint:
// the result is sound whatever the count, and a longer chain of = atoms
// than the passes reach is only bounded less tightly.
//
// Therefore the exact solution-set projection onto any variable
// (VarBounds, a full Fourier-Motzkin projection) is always contained in
// the envelope's interval — the soundness property the filter relies on:
// envelope-disjoint on a shared variable implies the merged conjunction
// is unsatisfiable, so the refine step would have rejected the pair too.

// Envelope is the axis-aligned bounding box of a conjunction: at most one
// rational interval per variable. Variables without an entry are
// unbounded in both directions. The zero Envelope bounds nothing.
type Envelope struct {
	ivs map[string]Interval
}

// Interval returns the envelope's interval for variable v. ok is false
// when the envelope carries no bound for v (unbounded both ways).
func (e Envelope) Interval(v string) (Interval, bool) {
	iv, ok := e.ivs[v]
	return iv, ok
}

// Disjoint reports whether e and o provably cannot overlap on any of the
// given variables: some listed variable has separated intervals, or an
// empty interval on either side (an empty interval means that side's
// conjunction is unsatisfiable on its own). Disjoint envelopes imply the
// merged conjunction is unsatisfiable, so a filter stage may reject the
// pair without a satisfiability decision. Not-disjoint proves nothing —
// the refine step still decides exactly. The filter stage (package cqa)
// asks the same question on envelopes projected onto its columns once per
// operator; this is the reference its property test checks it against.
func (e Envelope) Disjoint(o Envelope, vars []string) bool {
	for _, v := range vars {
		iv1, ok1 := e.ivs[v]
		iv2, ok2 := o.ivs[v]
		if (ok1 && iv1.IsEmpty()) || (ok2 && iv2.IsEmpty()) {
			return true
		}
		if ok1 && ok2 && !iv1.Intersects(iv2) {
			return true
		}
	}
	return false
}

// envBox memoizes a conjunction's envelope next to the fingerprint, and
// with it whether the conjunction is a non-empty box (IsBox, box.go).
// Canon attaches one shared box to the canonical value it returns, so
// every copy of that conjunction (tuples share constraint parts freely)
// computes both at most once, on first use.
type envBox struct {
	once sync.Once
	env  Envelope
	box  bool // set with env

	// knownBox is set, before the value is shared, by the constructors
	// that build a non-empty box from non-empty boxes (BoxMerge,
	// dropVars): they know the answer without the envelope.
	knownBox bool
}

// Envelope returns the conjunction's axis-aligned envelope: per variable,
// an interval that contains the variable's exact range over the solutions,
// read off the single-variable atoms and then propagated through the
// multi-variable ones for a constant number of passes (see the file
// comment for the soundness contract). On a canonical conjunction the
// result is memoized alongside the fingerprint: computed on first use,
// shared by all copies. Non-canonical conjunctions compute it afresh on
// every call — the operators only ever ask on canonical forms.
func (j Conjunction) Envelope() Envelope {
	if j.env == nil {
		env, _ := envelopeOf(j.cs)
		return env
	}
	j.env.once.Do(func() { j.env.env, j.env.box = envelopeOf(j.cs) })
	return j.env.env
}

// envelopePasses is how many times envelopeOf reads the multi-variable
// atoms against the bounds so far. Two bound x in x = y, y = z with z
// bounded, in either order of the atoms; the far end of a longer chain may
// stay unbounded, which is sound, only looser.
const envelopePasses = 2

// envelopeOf derives the envelope of cs: the single-variable atoms' bounds,
// then envelopePasses passes of propagation over the multi-variable atoms
// when there are both (constant atoms contribute nothing). box reports
// that the envelope is all of cs and no interval is empty: every atom a
// single-variable inequality (see IsBox).
func envelopeOf(cs []Constraint) (_ Envelope, box bool) {
	var ivs map[string]Interval
	box = true
	multi := false
	for _, c := range cs {
		ts := c.Expr.Terms()
		if len(ts) != 1 {
			box = false
			multi = multi || len(ts) > 1
			continue
		}
		a, v := ts[0].Coef, ts[0].Var
		bound := c.Expr.ConstTerm().Div(a).Neg() // a*v + k OP 0  =>  v OP' -k/a
		if ivs == nil {
			ivs = map[string]Interval{}
		}
		iv := ivs[v]
		switch {
		case c.Op == Eq:
			box = false
			tightenLower(&iv, bound, false)
			tightenUpper(&iv, bound, false)
		case a.Sign() > 0: // v <= bound (open if Lt)
			tightenUpper(&iv, bound, c.Op == Lt)
		default: // v >= bound
			tightenLower(&iv, bound, c.Op == Lt)
		}
		ivs[v] = iv
	}
	if multi && ivs != nil {
		for range envelopePasses {
			for _, c := range cs {
				if len(c.Expr.terms) < 2 {
					continue
				}
				propagate(ivs, c.Expr, false)
				if c.Op == Eq {
					propagate(ivs, c.Expr, true)
				}
			}
		}
	}
	if box {
		for _, iv := range ivs {
			if iv.IsEmpty() {
				box = false
				break
			}
		}
	}
	return Envelope{ivs: ivs}, box
}

// propagate tightens ivs by the atom e ≤ 0, or -e ≤ 0 when neg is set: with
// e = Σ aᵢvᵢ + k, each aⱼvⱼ ≤ -k - Σ_{i≠j} min(aᵢvᵢ) over the intervals in
// ivs, a closed bound on vⱼ whenever every other term's minimum is finite.
func propagate(ivs map[string]Interval, e Expr, neg bool) {
	coef := func(t Term) rational.Rat {
		if neg {
			return t.Coef.Neg()
		}
		return t.Coef
	}
	// lowest returns min(a·v) over v's interval, ok=false when it is -∞.
	lowest := func(a rational.Rat, v string) (rational.Rat, bool) {
		iv := ivs[v]
		if a.Sign() > 0 {
			return a.Mul(iv.Lower), iv.HasLower
		}
		return a.Mul(iv.Upper), iv.HasUpper
	}
	k := e.c
	if neg {
		k = k.Neg()
	}
	for j, tj := range e.terms {
		rest, finite := k.Neg(), true
		for i, ti := range e.terms {
			if i == j {
				continue
			}
			lo, ok := lowest(coef(ti), ti.Var)
			if !ok {
				finite = false
				break
			}
			rest = rest.Sub(lo)
		}
		if !finite {
			continue
		}
		a := coef(tj)
		iv := ivs[tj.Var]
		if bound := rest.Div(a); a.Sign() > 0 { // aⱼvⱼ ≤ rest
			tightenUpper(&iv, bound, false)
		} else {
			tightenLower(&iv, bound, false)
		}
		ivs[tj.Var] = iv
	}
}
