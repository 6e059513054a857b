package constraint

import (
	"math"
	"slices"
	"sync"

	"cdb/internal/rational"
)

// This file implements the axis-aligned envelope of a conjunction — the
// cheap bounding box behind the filter stage of the binary CQA operators'
// filter-and-refine split (package cqa). The expensive refine step
// (Merge+Canon plus a Fourier-Motzkin satisfiability decision per tuple
// pair) is exactly the quantifier-elimination cost the CDB literature
// identifies as the evaluation bottleneck; the envelope lets the pairing
// layer reject most non-interacting pairs in O(shared variables) float
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
// stays unbounded, i.e. (-∞, +∞). The passes are a constant, not a
// fixpoint: the result is sound whatever the count, and a longer chain of
// = atoms than the passes reach is only bounded less tightly.
//
// Next to propagation, a planar conjunction — at most two variables, some
// atom over both, as a polygon is — gets exact bounds: each variable the
// passes leave one-sided is bounded by its exact range (VarBounds: one
// elimination of the other variable, once per canonical conjunction). A
// polygon with no axis-parallel edge has no single-variable atom for the
// passes to start from, so without this it would bound nothing.
//
// Therefore the exact solution-set projection onto any variable
// (VarBounds, a full Fourier-Motzkin projection) is always contained in
// the envelope's interval — the soundness property the filter relies on:
// envelope-disjoint on a shared variable implies the merged conjunction
// is unsatisfiable, so the refine step would have rejected the pair too.
//
// Each interval carries its endpoints as float64 keys (Keys), each the
// nearest float64 to its rational endpoint, computed once with the
// interval. Correct rounding is monotone, so keys in strict float order
// are endpoints in the same exact order, and only a float tie needs more:
// the keys' exact bits when both are exact, else the rationals. The filter
// stage compares keys (Keys.Before); the exact Interval stays beside them,
// for that tie-break and for every caller that needs the rational.

// Envelope is the axis-aligned bounding box of a conjunction: at most one
// rational interval per variable, with its float keys, in one slice sorted
// by variable. Variables without an entry are unbounded in both
// directions. The zero Envelope bounds nothing.
type Envelope struct {
	ents []envEntry
}

// envEntry is one variable's bound in an Envelope.
type envEntry struct {
	v    string
	iv   Interval
	keys Keys
}

// Keys are an envelope interval's endpoints as float64s: Lo and Hi are the
// nearest float64s to the rational endpoints (rational.Rat.Float64), -Inf
// and +Inf where the interval has none. Bits say which endpoints are open,
// which keys equal their endpoint (an absent endpoint's infinite key
// counts as exact; a present endpoint's key is never an exact infinity),
// and whether the interval is empty.
type Keys struct {
	Lo, Hi float64
	Bits   KeyBits
}

// KeyBits are the flags of Keys.
type KeyBits uint8

const (
	LoOpen  KeyBits = 1 << iota // the lower endpoint is open
	LoExact                     // Lo equals the lower endpoint
	HiOpen                      // the upper endpoint is open
	HiExact                     // Hi equals the upper endpoint
	Empty                       // the interval is empty
)

// unboundedKeys are the keys of a variable an envelope does not bound.
var unboundedKeys = Keys{Lo: math.Inf(-1), Hi: math.Inf(1), Bits: LoExact | HiExact}

// keysOf computes iv's keys.
func keysOf(iv Interval) Keys {
	k, loExact, hiExact := unboundedKeys, true, true
	if iv.HasLower {
		k.Lo, loExact = iv.Lower.Float64()
	}
	if iv.HasUpper {
		k.Hi, hiExact = iv.Upper.Float64()
	}
	k.Bits = flag(iv.LowerOpen, LoOpen) | flag(loExact, LoExact) | flag(iv.UpperOpen, HiOpen) |
		flag(hiExact, HiExact) | flag(iv.IsEmpty(), Empty)
	return k
}

func flag(on bool, b KeyBits) KeyBits {
	if on {
		return b
	}
	return 0
}

// Before reports whether a non-empty interval with keys k lies entirely
// below a non-empty one with keys o — k's upper endpoint below o's lower,
// an open endpoint at a shared value separating them too — when the keys
// can tell: decided is false on a float tie where either key is inexact,
// and the caller compares the exact intervals (Interval.Intersects). Keys
// in strict float order are endpoints in that order; keys tied and both
// exact are one value, where the open bits decide.
func (k Keys) Before(o Keys) (before, decided bool) {
	switch {
	case k.Hi < o.Lo:
		return true, true
	case k.Hi > o.Lo:
		return false, true
	case k.Bits&HiExact != 0 && o.Bits&LoExact != 0:
		return k.Bits&HiOpen != 0 || o.Bits&LoOpen != 0, true
	}
	return false, false
}

// find returns the index of v's entry in ents, or where it would go: a
// scan, as a conjunction has few variables.
func find(ents []envEntry, v string) (int, bool) {
	for i := range ents {
		if ents[i].v >= v {
			return i, ents[i].v == v
		}
	}
	return len(ents), false
}

// Interval returns the envelope's interval for variable v. ok is false
// when the envelope carries no bound for v (unbounded both ways).
func (e Envelope) Interval(v string) (Interval, bool) {
	if i, ok := find(e.ents, v); ok {
		return e.ents[i].iv, true
	}
	return Interval{}, false
}

// Keys returns the float keys of the envelope's interval for variable v:
// (-Inf, +Inf) when the envelope carries no bound for v.
func (e Envelope) Keys(v string) Keys {
	if i, ok := find(e.ents, v); ok {
		return e.ents[i].keys
	}
	return unboundedKeys
}

// Disjoint reports whether e and o provably cannot overlap on any of the
// given variables: some listed variable has separated intervals, or an
// empty interval on either side (an empty interval means that side's
// conjunction is unsatisfiable on its own). Disjoint envelopes imply the
// merged conjunction is unsatisfiable, so a filter stage may reject the
// pair without a satisfiability decision. Not-disjoint proves nothing —
// the refine step still decides exactly. The filter stage (package cqa)
// asks the same question on the float keys, projected onto its columns
// once per operator; this is the exact reference its property tests check
// it against.
func (e Envelope) Disjoint(o Envelope, vars []string) bool {
	for _, v := range vars {
		iv1, ok1 := e.Interval(v)
		iv2, ok2 := o.Interval(v)
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
// read off the single-variable atoms, propagated through the
// multi-variable ones for a constant number of passes, and exact where a
// planar conjunction's passes leave it one-sided (see the file comment
// for the soundness contract). On a canonical conjunction the result is
// memoized alongside the fingerprint, float keys included: computed on
// first use, shared by all copies. Non-canonical conjunctions compute it
// afresh on every call — the operators only ever ask on canonical forms.
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
// when there are both (constant atoms contribute nothing), then a planar
// conjunction's exact ranges, then every interval's keys. The entries are
// built in a small array and copied out once. box reports that the
// envelope is all of cs and no interval is empty: every atom a
// single-variable inequality (see IsBox).
func envelopeOf(cs []Constraint) (_ Envelope, box bool) {
	var few [4]envEntry
	ents := few[:0]
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
		var i int
		ents, i = entry(ents, v)
		iv := &ents[i].iv
		switch {
		case c.Op == Eq:
			box = false
			tightenLower(iv, bound, false)
			tightenUpper(iv, bound, false)
		case a.Sign() > 0: // v <= bound (open if Lt)
			tightenUpper(iv, bound, c.Op == Lt)
		default: // v >= bound
			tightenLower(iv, bound, c.Op == Lt)
		}
	}
	if multi && len(ents) > 0 {
		for range envelopePasses {
			for _, c := range cs {
				if len(c.Expr.terms) < 2 {
					continue
				}
				ents = propagate(ents, c.Expr, false)
				if c.Op == Eq {
					ents = propagate(ents, c.Expr, true)
				}
			}
		}
	}
	if multi {
		ents = planarBounds(ents, cs)
	}
	if len(ents) == 0 {
		return Envelope{}, box
	}
	out := make([]envEntry, len(ents))
	for i := range ents {
		out[i] = envEntry{v: ents[i].v, iv: ents[i].iv, keys: keysOf(ents[i].iv)}
		box = box && out[i].keys.Bits&Empty == 0
	}
	return Envelope{ents: out}, box
}

// entry returns ents with an entry for v, an unbounded one inserted where
// there is none, and its index.
func entry(ents []envEntry, v string) ([]envEntry, int) {
	i, ok := find(ents, v)
	if !ok {
		ents = slices.Insert(ents, i, envEntry{v: v})
	}
	return ents, i
}

// planarBounds gives a conjunction over exactly two variables (its
// multi-variable atoms are over both) the exact range of each variable
// ents leaves one-sided, and returns ents. A variable without an entry is
// unbounded, so it is asked too. The variables are counted without
// allocating: a third one, or an unsatisfiable cs, leaves ents as they are.
func planarBounds(ents []envEntry, cs []Constraint) []envEntry {
	var vars [2]string
	n := 0
	for _, c := range cs {
		for _, t := range c.Expr.terms {
			if n > 0 && t.Var == vars[0] || n > 1 && t.Var == vars[1] {
				continue
			}
			if n == len(vars) {
				return ents
			}
			vars[n] = t.Var
			n++
		}
	}
	if n != len(vars) {
		return ents
	}
	for k, v := range vars {
		if i, ok := find(ents, v); ok && ents[i].iv.HasLower && ents[i].iv.HasUpper {
			continue
		}
		other := [1]string{vars[1-k]}
		rows, _, ok := eliminate(cs, other[:], 0)
		if !ok {
			return ents
		}
		if iv, ok := interval(rows, v); ok && (iv.HasLower || iv.HasUpper) {
			var i int
			ents, i = entry(ents, v)
			ents[i].iv = iv
		}
	}
	return ents
}

// propagate tightens ents by the atom e ≤ 0, or -e ≤ 0 when neg is set,
// and returns them: with e = Σ aᵢvᵢ + k, each aⱼvⱼ ≤ -k - Σ_{i≠j}
// min(aᵢvᵢ) over the intervals in ents, a closed bound on vⱼ whenever
// every other term's minimum is finite.
func propagate(ents []envEntry, e Expr, neg bool) []envEntry {
	coef := func(t Term) rational.Rat {
		if neg {
			return t.Coef.Neg()
		}
		return t.Coef
	}
	// lowest returns min(a·v) over v's interval, ok=false when it is -∞.
	lowest := func(a rational.Rat, v string) (rational.Rat, bool) {
		i, ok := find(ents, v)
		if !ok {
			return rational.Rat{}, false
		}
		iv := &ents[i].iv
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
		var i int
		ents, i = entry(ents, tj.Var)
		if bound := rest.Div(a); a.Sign() > 0 { // aⱼvⱼ ≤ rest
			tightenUpper(&ents[i].iv, bound, false)
		} else {
			tightenLower(&ents[i].iv, bound, false)
		}
	}
	return ents
}
