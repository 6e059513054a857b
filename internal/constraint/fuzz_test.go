package constraint_test

// Native fuzz targets for the constraint kernel. The external test package
// lets the targets parse arbitrary fuzz input with query.ParseConstraints
// and check the engine's decisions against the independent naive oracle
// (internal/oracle) without an import cycle.
//
// Run with: go test ./internal/constraint -run '^$' -fuzz FuzzCanon
// The committed corpora under testdata/fuzz/ replay as ordinary tests.

import (
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/oracle"
	"cdb/internal/query"
)

// fuzzConstraints parses fuzz input into a conjunction, discarding inputs
// that don't parse or would make textbook Fourier-Motzkin blow up (the
// oracle is intentionally exponential; fuzzing is about correctness, not
// endurance).
func fuzzConstraints(src string) ([]constraint.Constraint, bool) {
	cs, err := query.ParseConstraints(src)
	if err != nil {
		return nil, false
	}
	if len(cs) > 8 {
		return nil, false
	}
	vars := map[string]bool{}
	for _, c := range cs {
		for _, v := range c.Expr.Vars() {
			vars[v] = true
		}
	}
	if len(vars) > 4 {
		return nil, false
	}
	return cs, true
}

var fuzzSeeds = []string{
	"",      // empty conjunction = broad true
	"0 < 0", // the False sentinel
	"x <= 5",
	"x <= 5, x >= 6",
	"x < 0, x >= 0", // strict trap: closure feasible, set empty
	"x = 3, x <= 2",
	"2x + 3y = 6, x - y <= 0",
	"x + y <= 1, x - y <= 1, -x <= 0",
	"x/2 <= 3/4",
	"x - y < 0, y - z < 0, z - x < 0",
	"x = y, y = z, z = x",
	"-2x <= -4, x <= 2",
}

// FuzzCanon checks the canonicaliser: Canon must be a fixpoint, preserve
// semantics (Equivalent), and agree with the original on satisfiability.
func FuzzCanon(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		cs, ok := fuzzConstraints(src)
		if !ok {
			return
		}
		j := constraint.And(cs...)
		c := j.Canon()
		if got, want := c.Canon().String(), c.String(); got != want {
			t.Fatalf("Canon not a fixpoint on %q:\n  once  %s\n  twice %s", src, want, got)
		}
		// The keyed sort must realise the reference order (operator, then
		// rendered expression), strictly: exact ties are folded away.
		atoms := c.Constraints()
		for i := 1; i < len(atoms); i++ {
			if !constraint.LessConstraint(atoms[i-1], atoms[i]) {
				t.Fatalf("canonical atoms of %q out of order at %d: %s", src, i, c)
			}
		}
		if j.IsSatisfiable() != c.IsSatisfiable() {
			t.Fatalf("Canon changed satisfiability of %q: %v -> %v", src, j.IsSatisfiable(), c.IsSatisfiable())
		}
		if !j.Equivalent(c) {
			t.Fatalf("Canon not semantics-preserving on %q:\n  j = %s\n  canon = %s", src, j, c)
		}
	})
}

// FuzzFourierMotzkin checks the eliminator (Gauss substitution, the
// history bound, the interval read) against the oracle's textbook
// Fourier-Motzkin on the same input: satisfiability must agree, and
// eliminating any one variable must preserve satisfiability. Inputs too
// large for the oracle (up to 16 atoms over 5 variables, the dense shapes
// the history bound is for) are checked against the simplex instead: the
// verdict against the slack LP, and each variable's bounds against two LPs
// when the system is closed.
func FuzzFourierMotzkin(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if cs, ok := fuzzConstraints(src); ok {
			fuzzAgainstOracle(t, src, cs)
			return
		}
		cs, err := query.ParseConstraints(src)
		if err != nil || len(cs) > 16 {
			return
		}
		j := constraint.And(cs...)
		vars := j.Vars()
		if len(vars) > 5 {
			return
		}
		engine := j.IsSatisfiable()
		if lp := slackSatisfiable(j); engine != lp {
			t.Fatalf("satisfiability disagreement on %q: engine=%v slack LP=%v", src, engine, lp)
		}
		for _, c := range cs {
			if c.Op == constraint.Lt {
				return
			}
		}
		for _, v := range vars {
			got, gok := j.VarBounds(v)
			if want, wok := simplexInterval(j, v); gok != wok || (gok && !sameInterval(got, want)) {
				t.Fatalf("VarBounds(%s) of %q = %s, the simplex says %s", v, src, showInterval(got, gok), showInterval(want, wok))
			}
		}
	})
}

// fuzzAgainstOracle is FuzzFourierMotzkin on an input the oracle decides.
func fuzzAgainstOracle(t *testing.T, src string, cs []constraint.Constraint) {
	j := constraint.And(cs...)
	engine := j.IsSatisfiable()
	if naive := oracle.Sat(j); engine != naive {
		t.Fatalf("satisfiability disagreement on %q: engine=%v oracle=%v", src, engine, naive)
	}
	for _, v := range j.Vars() {
		e := j.Eliminate(v)
		if e.IsSatisfiable() != engine {
			t.Fatalf("Eliminate(%s) changed satisfiability of %q: %v -> %v", v, src, engine, e.IsSatisfiable())
		}
		if oracle.Sat(e) != engine {
			t.Fatalf("oracle rejects Eliminate(%s) of %q: engine=%v oracle(e)=%v", v, src, engine, oracle.Sat(e))
		}
	}
}

// simplifyAgrees fails the test unless SimplifyWith returns, atom for atom
// and in order, what the elimination-based reference returns for j.
func simplifyAgrees(t *testing.T, what string, j constraint.Conjunction) {
	t.Helper()
	got, want := j.Simplify().Constraints(), constraint.ReferenceSimplify(j).Constraints()
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i].Op == want[i].Op && got[i].Expr.Equal(want[i].Expr)
	}
	if !same {
		t.Fatalf("Simplify diverged from the reference on %s\n  input %s\n  got   %s\n  want  %s",
			what, j, constraint.And(got...), constraint.And(want...))
	}
}

// FuzzSimplify checks the planar redundancy rule against the reference
// SimplifyWith it short-cuts, on the raw conjunction and on its canonical
// form (what the operators feed it).
func FuzzSimplify(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		cs, ok := fuzzConstraints(src)
		if !ok {
			return
		}
		j := constraint.And(cs...)
		simplifyAgrees(t, "raw "+src, j)
		simplifyAgrees(t, "canonical "+src, j.Canon())
	})
}

// FuzzStaircase holds the chain staircase and its edge rule to the eager
// reference (constraint.CheckStaircase) on "minuend ; subtrahend ; ..."
// inputs of at most twelve atoms over at most three variables. The seeds
// are stairRows, whose strict atoms through a vertex send pieces to the
// built conjunction's replay.
//
// Run with: go test ./internal/constraint -run '^$' -fuzz FuzzStaircase
func FuzzStaircase(f *testing.F) {
	for _, src := range stairRows {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		j, ks, ok := parseStair(src)
		if !ok {
			return
		}
		vars := map[string]bool{}
		for _, k := range append(ks, j) {
			for _, v := range k.Vars() {
				vars[v] = true
			}
		}
		if len(vars) > 3 {
			return
		}
		var tally constraint.StaircaseTally
		constraint.CheckStaircase(t, j, ks, &tally)
	})
}
