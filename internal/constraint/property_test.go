package constraint_test

// Property test (ISSUE 4 satellite): the simplex-based FeasiblePoint and
// the Fourier-Motzkin IsSatisfiable are two independent decision
// procedures over the same polyhedra — on closed systems (Le/Eq only)
// they must agree exactly, and on arbitrary systems satisfiability must
// imply closure feasibility. Randomised, seeded, 250 cases each.

import (
	"math/rand"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/datagen"
	"cdb/internal/rational"
)

// closedConjunction draws a random conjunction and closes it: every strict
// inequality weakens to its closure, where simplex and Fourier-Motzkin
// decide the exact same question.
func closedConjunction(rng *rand.Rand, vars []string) constraint.Conjunction {
	j := datagen.RandomConjunction(rng, vars)
	cs := j.Constraints()
	out := make([]constraint.Constraint, 0, len(cs))
	for _, c := range cs {
		if c.Op == constraint.Lt {
			c = constraint.Constraint{Expr: c.Expr, Op: constraint.Le}
		}
		out = append(out, c)
	}
	return constraint.And(out...)
}

func TestSimplexAgreesWithFourierMotzkin(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vars := []string{"x", "y", "z"}
	sat, unsat := 0, 0
	before := constraint.DecisionCount()
	for i := 0; i < 250; i++ {
		j := closedConjunction(rng, vars)
		fm := j.IsSatisfiable()
		p, simplex := constraint.FeasiblePoint(j)
		if fm != simplex {
			t.Fatalf("case %d: decision procedures disagree on %s: fourier-motzkin=%v simplex=%v",
				i, j, fm, simplex)
		}
		if simplex {
			sat++
			// The point simplex returns must actually satisfy the system —
			// checked by direct substitution, no third procedure involved.
			for _, c := range j.Constraints() {
				for _, v := range c.Expr.Vars() {
					if _, ok := p[v]; !ok {
						p[v] = rational.Zero
					}
				}
			}
			holds, err := j.Holds(p)
			if err != nil {
				t.Fatalf("case %d: evaluating witness point: %v", i, err)
			}
			if !holds {
				t.Fatalf("case %d: simplex witness %v does not satisfy %s", i, p, j)
			}
		} else {
			unsat++
		}
	}
	if sat == 0 || unsat == 0 {
		t.Fatalf("degenerate draw: sat=%d unsat=%d — property is vacuous", sat, unsat)
	}
	after := constraint.DecisionCount()
	if after < before {
		t.Fatalf("DecisionCount went backwards: %d -> %d", before, after)
	}
	if after == before {
		t.Fatal("DecisionCount did not advance across 250 satisfiability decisions")
	}
}

// TestSimplexClosureNecessary: on arbitrary (possibly strict) systems the
// exact decision implies closure feasibility — one direction only; the
// x < 0 ∧ x >= 0 trap shows the converse is false.
func TestSimplexClosureNecessary(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vars := []string{"x", "y"}
	for i := 0; i < 250; i++ {
		j := datagen.RandomConjunction(rng, vars)
		if j.IsSatisfiable() {
			if _, ok := constraint.FeasiblePoint(j); !ok {
				t.Fatalf("case %d: %s is satisfiable but simplex finds its closure infeasible", i, j)
			}
		}
	}
}

// TestDecisionCountMonotone pins the contract the benchmarks read deltas
// against: concurrent decisions only ever increase the counter.
func TestDecisionCountMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	prev := constraint.DecisionCount()
	for i := 0; i < 50; i++ {
		j := datagen.RandomConjunction(rng, []string{"x", "y"})
		_ = j.IsSatisfiable()
		cur := constraint.DecisionCount()
		if cur < prev {
			t.Fatalf("DecisionCount decreased: %d -> %d", prev, cur)
		}
		prev = cur
	}
}

// TestSatisfiableRepeatableWork pins the eliminator's order: the variables
// of a decision are eliminated in an order fixed by the system itself, not
// by Go's map iteration, so asking the same cold question again does the
// same work — here, the same number of allocations, fifty times over.
func TestSatisfiableRepeatableWork(t *testing.T) {
	q := rational.FromInt
	v := constraint.Var
	le := func(e constraint.Expr, k int64) constraint.Constraint {
		return constraint.Constraint{Expr: e.Sub(constraint.ConstInt(k)), Op: constraint.Le}
	}
	systems := map[string]constraint.Conjunction{
		// A parcel ∧ an ownership interval ∧ a track segment: x and y
		// are defined by equalities, t is bounded from six sides.
		"hurricane": constraint.And(
			constraint.MustNew(v("x"), "=", v("t").Scale(rational.New(7, 5)).Add(constraint.ConstInt(2))),
			constraint.MustNew(v("y"), "=", v("t").Scale(rational.New(6, 5)).Add(constraint.ConstInt(1))),
			constraint.GeConst("t", q(0)), constraint.LeConst("t", q(5)),
			constraint.GeConst("t", q(1)), constraint.LeConst("t", q(14)),
			constraint.GeConst("x", q(6)), constraint.LeConst("x", q(11)),
			constraint.GeConst("y", q(0)), constraint.LeConst("y", q(5))),
		// Four variables, every atom over three of them: the combination
		// step's output depends heavily on which variable goes first.
		"dense-4": constraint.And(
			le(v("w").Add(v("x")).Add(v("y")), 9), le(v("w").Neg().Add(v("x")).Sub(v("z")), 4),
			le(v("x").Neg().Add(v("y")).Add(v("z")), 7), le(v("w").Sub(v("y")).Sub(v("z")), 3),
			le(v("w").Neg().Sub(v("x")).Add(v("z")), 5), le(v("x").Sub(v("y")).Add(v("w").Scale(q(2))), 8),
			le(v("y").Neg().Sub(v("z")).Sub(v("w")), 6), le(v("z").Sub(v("x")).Add(v("y").Scale(q(3))), 12),
			constraint.GeConst("w", q(-5)), constraint.LeConst("z", q(5))),
	}
	// AllocsPerRun's integer average over ten calls absorbs the odd
	// allocation the runtime makes beside the test; an order that moves
	// between calls moves the average.
	for name, j := range systems {
		want := testing.AllocsPerRun(10, func() { j.IsSatisfiable() })
		for run := 1; run < 50; run++ {
			if got := testing.AllocsPerRun(10, func() { j.IsSatisfiable() }); got != want {
				t.Fatalf("%s: run %d made %v allocations, run 0 made %v", name, run, got, want)
			}
		}
	}
}
