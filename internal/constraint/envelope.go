package constraint

import "sync"

// This file implements the axis-aligned envelope of a conjunction — the
// cheap bounding box behind the filter stage of the binary CQA operators'
// filter-and-refine split (package cqa). The expensive refine step
// (Merge+Canon plus a Fourier-Motzkin satisfiability decision per tuple
// pair) is exactly the quantifier-elimination cost the CDB literature
// identifies as the evaluation bottleneck; the envelope lets the pairing
// layer reject most non-interacting pairs in O(shared variables) rational
// comparisons without ever running the eliminator.
//
// The envelope is conservative by construction: it is derived only from
// the single-variable atoms (a·v + k OP 0 bounds v at -k/a), and a
// variable touched only by multi-variable atoms stays unbounded, i.e.
// (-∞, +∞). Therefore the exact solution-set projection onto any variable
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

// Envelope returns the conjunction's axis-aligned envelope, derived from
// its single-variable atoms (see the file comment for the soundness
// contract). On a canonical conjunction the result is memoized alongside
// the fingerprint: computed on first use, shared by all copies. Non-
// canonical conjunctions compute it afresh on every call — the operators
// only ever ask on canonical forms.
func (j Conjunction) Envelope() Envelope {
	if j.env == nil {
		env, _ := envelopeOf(j.cs)
		return env
	}
	j.env.once.Do(func() { j.env.env, j.env.box = envelopeOf(j.cs) })
	return j.env.env
}

// envelopeOf derives the envelope from the single-variable atoms of cs.
// Multi-variable and constant atoms contribute nothing (conservative).
// box reports that the envelope is all of cs and no interval is empty:
// every atom a single-variable inequality (see IsBox).
func envelopeOf(cs []Constraint) (_ Envelope, box bool) {
	var ivs map[string]Interval
	box = true
	for _, c := range cs {
		ts := c.Expr.Terms()
		if len(ts) != 1 {
			box = false
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
