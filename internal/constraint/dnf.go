package constraint

import "cdb/internal/rational"

// This file implements complementation of conjunctions into disjunctive
// normal form. It is the engine behind CQA's difference operator: the
// constraint part of a tuple difference t1 - t2 is  φ(t1) ∧ ¬φ(t2), which
// expands into a finite union of constraint tuples (the closure principle:
// the output is again representable in the input's constraint class).

// Disjunction is a finite disjunction of conjunctions (DNF). The empty
// disjunction denotes "false".
type Disjunction []Conjunction

// ComplementInto returns base ∧ ¬j as a disjunction of satisfiable
// conjunctions.
//
// The expansion follows the standard "staircase" decomposition, which keeps
// the disjuncts pairwise disjoint: for j = c1 ∧ c2 ∧ ... ∧ cn,
//
//	¬j = ¬c1  ∨  (c1 ∧ ¬c2)  ∨  (c1 ∧ c2 ∧ ¬c3)  ∨ ...
//
// with each ¬ci itself a disjunction of at most two atomic constraints
// (two for equalities). Unsatisfiable disjuncts are pruned eagerly.
func ComplementInto(base Conjunction, j Conjunction) Disjunction {
	return complementInto(base, j, false, nil)
}

// ComplementIntoWith is ComplementInto with the eager pruning's
// satisfiability decisions routed through sat (nil = raw Fourier-Motzkin).
// The pruning is the dominant cost of the difference operator, which is why
// it is the main consumer of the memoized engine.
func ComplementIntoWith(base Conjunction, j Conjunction, sat SatFunc) Disjunction {
	return complementInto(base, j, false, sat)
}

// complementInto implements ComplementInto; lazyPrune skips the eager
// satisfiability pruning (DESIGN.md ablation; production always prunes).
func complementInto(base Conjunction, j Conjunction, lazyPrune bool, sat SatFunc) Disjunction {
	if !lazyPrune && !base.SatisfiableWith(sat) {
		return nil
	}
	cs := j.Constraints()
	var out Disjunction
	prefix := base
	for _, c := range cs {
		for _, neg := range c.Complement() {
			cand := prefix.With(neg)
			if lazyPrune || cand.SatisfiableWith(sat) {
				out = append(out, cand)
			}
		}
		prefix = prefix.With(c)
		if !lazyPrune && !prefix.SatisfiableWith(sat) {
			// base already entails ¬(remaining prefix); nothing further to
			// subtract from.
			break
		}
	}
	return out
}

// Subtract returns the difference j - k as a disjunction of satisfiable
// conjunctions: assignments satisfying j but not k.
func Subtract(j, k Conjunction) Disjunction {
	return ComplementInto(j, k)
}

// SubtractLazy is Subtract without the eager per-disjunct satisfiability
// pruning: the result may contain unsatisfiable disjuncts that downstream
// consumers must filter. It exists only for the DESIGN.md ablation
// benchmark; production paths always prune eagerly.
func SubtractLazy(j, k Conjunction) Disjunction {
	return complementInto(j, k, true, nil)
}

// SubtractAll returns j minus every conjunction in ks. The result is a
// disjunction of satisfiable conjunctions covering exactly the assignments
// in j and in none of the ks.
func SubtractAll(j Conjunction, ks []Conjunction) Disjunction {
	return SubtractAllWith(j, ks, nil)
}

// SubtractAllWith is SubtractAll with every satisfiability decision routed
// through sat (nil = raw Fourier-Motzkin).
func SubtractAllWith(j Conjunction, ks []Conjunction, sat SatFunc) Disjunction {
	work := Disjunction{j}
	for _, k := range ks {
		var next Disjunction
		for _, piece := range work {
			next = append(next, ComplementIntoWith(piece, k, sat)...)
		}
		work = next
		if len(work) == 0 {
			return nil
		}
	}
	return work
}

// SubtractAllScoped is SubtractAllWith for callers that can decide a
// conjunction from the decision made on its parent. The staircase only
// ever decides "prefix ∧ atom", where prefix is j extended by the atoms
// accumulated so far (negations emitted into a piece, plus the prefix atoms
// of subtrahends already walked): step receives the scope state S its
// parent decision returned — root for j itself, which the caller knows to
// be satisfiable — together with prefix and the one new atom, and returns
// the child's state and whether prefix ∧ atom is satisfiable. The vector
// fast path keeps j's polygon clipped by the accumulated atoms as its
// state, so a decision at any depth is one clip; prefix is there for the
// step that has to fall back on the full conjunction. A piece is decided
// once, when it is emitted, and carried into the next subtrahend with its
// state. The emitted disjuncts and their order are exactly those of
// SubtractAllWith whenever step agrees with the sat oracle.
func SubtractAllScoped[S any](j Conjunction, ks []Conjunction, root S, step func(parent S, prefix Conjunction, atom Constraint) (S, bool)) Disjunction {
	type piece struct {
		con   Conjunction
		scope S
	}
	work := []piece{{con: j, scope: root}}
	for _, k := range ks {
		var next []piece
		for _, p := range work {
			prefix, scope := p.con, p.scope
			for _, c := range k.Constraints() {
				for _, neg := range c.Complement() {
					if child, sat := step(scope, prefix, neg); sat {
						next = append(next, piece{con: prefix.With(neg), scope: child})
					}
				}
				var sat bool
				if scope, sat = step(scope, prefix, c); !sat {
					// p already entails ¬(remaining prefix); nothing further
					// to subtract from.
					break
				}
				prefix = prefix.With(c)
			}
		}
		work = next
		if len(work) == 0 {
			return nil
		}
	}
	out := make(Disjunction, len(work))
	for i, p := range work {
		out[i] = p.con
	}
	return out
}

// IsSatisfiable reports whether any disjunct is satisfiable.
func (d Disjunction) IsSatisfiable() bool {
	for _, j := range d {
		if j.IsSatisfiable() {
			return true
		}
	}
	return false
}

// Holds evaluates the disjunction under the assignment: true if any
// disjunct holds.
func (d Disjunction) Holds(assign map[string]rational.Rat) (bool, error) {
	for _, j := range d {
		ok, err := j.Holds(assign)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}
