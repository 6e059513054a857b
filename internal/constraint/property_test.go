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

// slackVar is the slack LP's extra variable: a name no generator uses.
const slackVar = "slack'"

// slackSatisfiable decides j exactly by the simplex alone, strict atoms
// included. It maximises a fresh variable s subject to a·x + s ≤ b for
// every strict atom a·x < b, the closed atoms as they are, and s ≤ 1: j is
// satisfiable iff that LP is feasible with optimum s > 0. Built only from
// the package's public API, it shares no code with the eliminator.
func slackSatisfiable(j constraint.Conjunction) bool {
	s := constraint.Var(slackVar)
	cs := []constraint.Constraint{constraint.LeConst(slackVar, rational.One)}
	for _, c := range j.Constraints() {
		if c.Op == constraint.Lt {
			c = constraint.Constraint{Expr: c.Expr.Add(s), Op: constraint.Le}
		}
		cs = append(cs, c)
	}
	r := constraint.Maximize(constraint.And(cs...), s)
	return r.Status == constraint.Optimal && r.Value.Sign() > 0
}

// TestFourierMotzkinOnStrictSystems checks Fourier–Motzkin's verdict where
// the closure check above cannot: on unclosed random systems over x, y, z,
// against the slack LP. The two traps are the boundary cases a closure
// decides wrong and right.
func TestFourierMotzkinOnStrictSystems(t *testing.T) {
	x := constraint.Var("x")
	for _, trap := range []struct {
		name string
		j    constraint.Conjunction
		want bool
	}{
		{"x < 0 ∧ x >= 0", constraint.And(constraint.MustNew(x, "<", constraint.ConstInt(0)), constraint.GeConst("x", rational.Zero)), false},
		{"0 < x ∧ x < 1", constraint.And(constraint.MustNew(constraint.ConstInt(0), "<", x), constraint.MustNew(x, "<", constraint.ConstInt(1))), true},
	} {
		if fm, lp := trap.j.IsSatisfiable(), slackSatisfiable(trap.j); fm != trap.want || lp != trap.want {
			t.Errorf("%s: fourier-motzkin=%v slack LP=%v, want %v", trap.name, fm, lp, trap.want)
		}
	}
	rng := rand.New(rand.NewSource(37))
	vars := []string{"x", "y", "z"}
	sat, unsat, strict := 0, 0, 0
	for i := 0; i < 250; i++ {
		j := datagen.RandomConjunction(rng, vars)
		fm, lp := j.IsSatisfiable(), slackSatisfiable(j)
		if fm != lp {
			t.Fatalf("case %d: decision procedures disagree on %s: fourier-motzkin=%v slack LP=%v", i, j, fm, lp)
		}
		if fm {
			sat++
		} else {
			unsat++
		}
		for _, c := range j.Constraints() {
			if c.Op == constraint.Lt {
				strict++
				break
			}
		}
	}
	if sat == 0 || unsat == 0 || strict < 25 {
		t.Fatalf("degenerate draw: sat=%d unsat=%d, %d with a strict atom", sat, unsat, strict)
	}
}

// queryThreeMerges is the cold-decision corpus: the conjunctions the
// paper's Query 3 decides on HurricaneRelations(8) — each owner interval
// joined with its parcel on landId, then with every track segment — in
// canonical form, as the join decides them.
func queryThreeMerges() []constraint.Conjunction {
	land, owners, track := datagen.HurricaneRelations(8)
	var out []constraint.Conjunction
	for _, o := range owners.Tuples() {
		for _, l := range land.Tuples() {
			ov, _ := o.RVal("landId")
			lv, _ := l.RVal("landId")
			if !ov.Identical(lv) {
				continue
			}
			ol := o.Constraint().Merge(l.Constraint()).Canon()
			for _, s := range track.Tuples() {
				out = append(out, ol.Merge(s.Constraint()).Canon())
			}
		}
	}
	return out
}

// perItem reports the benchmark's time per corpus item.
func perItem(b *testing.B, n int, unit string) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*n), unit)
}

// BenchmarkColdDecision times one cold satisfiability decision per Query 3
// merge by the eliminator (fm) and by the slack LP (simplex), after
// checking that the two agree on every one of them.
func BenchmarkColdDecision(b *testing.B) {
	corpus := queryThreeMerges()
	for _, j := range corpus {
		if j.IsSatisfiable() != slackSatisfiable(j) {
			b.Fatalf("the deciders disagree on %s", j)
		}
	}
	for _, d := range []struct {
		name   string
		decide func(constraint.Conjunction) bool
	}{{"fm", constraint.Conjunction.IsSatisfiable}, {"simplex", slackSatisfiable}} {
		b.Run(d.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, j := range corpus {
					d.decide(j)
				}
			}
			perItem(b, len(corpus), "us/decision")
		})
	}
}

// lpSimplify is SimplifyWith's general path with the simplex in place of
// the eliminator: the slack LP decides the system, then an atom
// a·x + c ≤ 0 is dropped when the remaining atoms keep a·x at most −c (an
// equality when they pin it to −c from both sides) — one LP per atom, two
// for an equality. Closed atoms only, as the Query 3 merges are.
func lpSimplify(j constraint.Conjunction) constraint.Conjunction {
	if !slackSatisfiable(j) {
		return constraint.False()
	}
	out := append([]constraint.Constraint{}, j.Constraints()...)
	for i := 0; i < len(out); {
		rest := constraint.And(append(append([]constraint.Constraint{}, out[:i]...), out[i+1:]...)...)
		bound := out[i].Expr.ConstTerm().Neg()
		hi := constraint.Maximize(rest, out[i].Expr)
		redundant := hi.Status == constraint.Optimal && hi.Value.Cmp(bound) <= 0
		if redundant && out[i].Op == constraint.Eq {
			lo := constraint.Minimize(rest, out[i].Expr)
			redundant = lo.Status == constraint.Optimal && lo.Value.Cmp(bound) >= 0
		}
		if redundant {
			out = append(out[:i], out[i+1:]...)
		} else {
			i++
		}
	}
	return constraint.And(out...)
}

// BenchmarkColdRedundancy times the redundancy pass on the satisfiable
// Query 3 merges: SimplifyWith's entailment checks, each a Fourier–Motzkin
// run (fm), against one LP per atom (simplex), after checking that both
// keep the same atoms.
func BenchmarkColdRedundancy(b *testing.B) {
	var corpus []constraint.Conjunction
	for _, j := range queryThreeMerges() {
		if j.IsSatisfiable() {
			corpus = append(corpus, j)
		}
	}
	for _, j := range corpus {
		if got, want := lpSimplify(j), j.SimplifyWith(nil); got.Key() != want.Key() {
			b.Fatalf("%s: one LP per atom keeps %s, SimplifyWith keeps %s", j, got, want)
		}
	}
	for _, d := range []struct {
		name     string
		simplify func(constraint.Conjunction) constraint.Conjunction
	}{
		{"fm", func(j constraint.Conjunction) constraint.Conjunction { return j.SimplifyWith(nil) }},
		{"simplex", lpSimplify},
	} {
		b.Run(d.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, j := range corpus {
					d.simplify(j)
				}
			}
			perItem(b, len(corpus), "us/tuple")
		})
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
