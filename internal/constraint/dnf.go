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

// Subtract returns the difference j - k as a disjunction of satisfiable
// conjunctions: assignments satisfying j but not k.
func Subtract(j, k Conjunction) Disjunction {
	return SubtractAllScoped(j, []Conjunction{k}, struct{}{}, fmStep)
}

// SubtractLazy is Subtract without the eager per-disjunct satisfiability
// pruning: every step answers satisfiable, so the result may contain
// unsatisfiable disjuncts that downstream consumers must filter. It exists
// only for the DESIGN.md ablation benchmark; production paths always prune
// eagerly.
func SubtractLazy(j, k Conjunction) Disjunction {
	return SubtractAllScoped(j, []Conjunction{k}, struct{}{},
		func(struct{}, Conjunction, Constraint) (struct{}, bool) { return struct{}{}, true })
}

// SubtractAll returns j minus every conjunction in ks. The result is a
// disjunction of satisfiable conjunctions covering exactly the assignments
// in j and in none of the ks; it is empty when j is unsatisfiable and ks is
// not.
func SubtractAll(j Conjunction, ks []Conjunction) Disjunction {
	return SubtractAllScoped(j, ks, struct{}{}, fmStep)
}

// fmStep is the scope-free staircase step: every decision runs the raw
// eliminator on the conjunction itself.
func fmStep(_ struct{}, prefix Conjunction, atom Constraint) (struct{}, bool) {
	return struct{}{}, prefix.With(atom).IsSatisfiable()
}

// SubtractAllScoped is the difference staircase, j minus every conjunction
// in ks. For k = c1 ∧ c2 ∧ ... ∧ cn it expands each piece p of the work
// list into
//
//	p ∧ ¬c1  ∨  p ∧ c1 ∧ ¬c2  ∨  p ∧ c1 ∧ c2 ∧ ¬c3  ∨ ...
//
// with each ¬ci itself a disjunction of at most two atomic constraints
// (two for equalities), which keeps the disjuncts pairwise disjoint, and
// drops every disjunct step proves unsatisfiable.
//
// The staircase only ever decides "prefix ∧ atom", where prefix is j
// extended by the atoms accumulated so far (negations emitted into a
// piece, plus the prefix atoms of subtrahends already walked): step
// receives the scope state S its parent decision returned — root for j
// itself, which the caller knows to be satisfiable — together with prefix
// and the one new atom, and returns the child's state and whether
// prefix ∧ atom is satisfiable. The vector fast path keeps j's polygon
// clipped by the accumulated atoms as its state, so a decision at any
// depth is one clip; prefix is there for the step that has to fall back on
// the full conjunction. A piece is decided once, when it is emitted, and
// carried into the next subtrahend with its state. An unsatisfiable j
// therefore emits nothing (every step extends it), and empty ks returns
// {j}.
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
