package constraint

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cdb/internal/rational"
)

// noisyAtoms builds atoms that collide on purpose, so every branch of the
// fold and every tie of the order is hit: a handful of variable parts reused
// at random positive scales (parallel half-planes), mirrored (opposite
// half-planes must not fold), constants drawn from a small set (exact ties,
// and the < versus <= tie-break), repeated equalities at either sign,
// fractions, coefficients and constants big enough that scaling promotes
// them to big.Rat, variable names that are prefixes of one another, and the
// odd trivially true atom. withFalse adds the occasional trivially false
// one.
func noisyAtoms(rng *rand.Rand, withFalse bool) []Constraint {
	r := func(n, d int64) rational.Rat { return rational.New(n, d) }
	huge := rational.FromInt(math.MaxInt64 / 3)
	coefs := []rational.Rat{r(1, 1), r(-1, 1), r(2, 1), r(-3, 1), r(1, 2), r(-2, 3), r(7, 5), huge, huge.Neg(), huge.Mul(huge)}
	consts := []rational.Rat{r(0, 1), r(1, 1), r(-1, 1), r(3, 1), r(3, 2), r(-7, 3), r(10, 1), huge, huge.Mul(huge).Neg()}
	scales := []rational.Rat{r(1, 1), r(1, 1), r(2, 1), r(1, 3), r(5, 2), huge}
	names := []string{"x", "x1", "xy", "y", "z"}

	parts := make([]Expr, 2+rng.Intn(3))
	for i := range parts {
		var ts []Term
		for _, v := range names {
			if rng.Intn(3) == 0 {
				ts = append(ts, Term{Var: v, Coef: coefs[rng.Intn(len(coefs))]})
			}
		}
		if len(ts) == 0 {
			ts = []Term{{Var: names[rng.Intn(len(names))], Coef: rational.One}}
		}
		parts[i] = NewExpr(ts, rational.Zero)
	}
	n := 1 + rng.Intn(12)
	out := make([]Constraint, 0, n)
	for i := 0; i < n; i++ {
		switch k := rng.Intn(20); {
		case k == 0:
			out = append(out, Constraint{Expr: ConstInt(-int64(rng.Intn(3))), Op: Le}) // trivially true
			continue
		case k == 1 && withFalse:
			out = append(out, Constraint{Expr: ConstInt(1), Op: Le}) // trivially false
			continue
		}
		e := parts[rng.Intn(len(parts))].AddConst(consts[rng.Intn(len(consts))])
		if rng.Intn(4) == 0 {
			e = e.Neg()
		}
		e = e.Scale(scales[rng.Intn(len(scales))])
		out = append(out, Constraint{Expr: e, Op: []Op{Eq, Le, Le, Lt, Lt}[rng.Intn(5)]})
	}
	return out
}

// TestCanonMatchesReference: the keyed sort, the structural fold and the
// post-sort equality dedup produce exactly the atoms, in exactly the order,
// that the string-keyed fold and the rendering comparator produced.
func TestCanonMatchesReference(t *testing.T) {
	check := func(name string, j Conjunction) {
		t.Helper()
		got, want := j.Canon().cs, referenceCanon(j)
		if !equalAtoms(got, want) {
			t.Fatalf("%s: Canon diverged from the reference\ninput: %s\ngot:   %s\nwant:  %s",
				name, j, Conjunction{cs: got}, Conjunction{cs: want})
		}
		if !sort.SliceIsSorted(got, func(a, b int) bool { return lessConstraint(got[a], got[b]) }) {
			t.Fatalf("%s: canonical atoms not in lessConstraint order: %s", name, Conjunction{cs: got})
		}
		for i := 1; i < len(got); i++ {
			if !lessConstraint(got[i-1], got[i]) {
				t.Fatalf("%s: atoms %d and %d tie; exact ties must have been folded: %s", name, i-1, i, Conjunction{cs: got})
			}
		}
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 2000; i++ {
		check("noisy", And(noisyAtoms(rng, i%7 == 0)...))
	}
	for i := 0; i < 500; i++ {
		check("randConj", randConj(rng))
	}
	// Merges of canonical operands: what every binary operator feeds Canon.
	for i := 0; i < 500; i++ {
		a, b := And(noisyAtoms(rng, false)...).Canon(), And(noisyAtoms(rng, false)...).Canon()
		check("merge", a.Merge(b))
	}
}

// inequalities returns the inequality atoms of cs in the reference order.
func inequalities(cs []Constraint) []Constraint {
	var out []Constraint
	for _, c := range cs {
		if c.Op != Eq {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return lessConstraint(out[a], out[b]) })
	return out
}

func canonicalAtoms(cs []Constraint) []Constraint {
	out := make([]Constraint, len(cs))
	for i, c := range cs {
		out[i] = c.Canonical()
	}
	return out
}

// TestFoldParallelMatchesOldFolds pins the one fold helper against both
// folds it replaced: the same inequalities survive as in Canon's former
// pass 2 (which moved the winner into the group's first slot, hence the
// comparison modulo order), and sweepRedundant returns exactly what the
// former sweep returned, position for position — including which of `<`
// and `<=` wins an equal constant, and that the earlier atom wins an exact
// tie.
func TestFoldParallelMatchesOldFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 3000; i++ {
		raw := noisyAtoms(rng, true)

		atoms := canonicalAtoms(raw)
		got := compact(append([]Constraint{}, atoms...), foldParallel(atoms, hashTerms))
		if g, w := inequalities(got), inequalities(referenceCanonFold(atoms)); !equalAtoms(g, w) {
			t.Fatalf("case %d: fold survivors differ from Canon's old pass 2\natoms: %s\ngot:   %s\nwant:  %s",
				i, Conjunction{cs: atoms}, Conjunction{cs: g}, Conjunction{cs: w})
		}
		eqs := 0
		for _, c := range atoms {
			if c.Op == Eq {
				eqs++
			}
		}
		if kept := len(got) - len(inequalities(got)); kept != eqs {
			t.Fatalf("case %d: the fold touched equalities: %d of %d kept", i, kept, eqs)
		}

		if g, w := sweepRedundant(raw), referenceSweep(raw); !equalAtoms(g, w) {
			t.Fatalf("case %d: sweepRedundant differs from the old sweep\ninput: %s\ngot:   %s\nwant:  %s",
				i, Conjunction{cs: raw}, Conjunction{cs: g}, Conjunction{cs: w})
		}
	}
	// The tie-break, spelled out.
	x := Var("x")
	le, lt := Constraint{Expr: x.Sub(ConstInt(3)), Op: Le}, Constraint{Expr: x.Sub(ConstInt(3)), Op: Lt}
	for _, order := range [][]Constraint{{le, lt}, {lt, le}, {le, lt, le}, {lt, lt, le}} {
		got := compact(append([]Constraint{}, order...), foldParallel(order, hashTerms))
		if len(got) != 1 || got[0].Op != Lt {
			t.Errorf("fold of %s kept %s, want the strict atom alone", Conjunction{cs: order}, Conjunction{cs: got})
		}
	}
}

// TestFoldParallelSurvivesHashCollisions forces every group onto one hash
// key (and onto two): the term-wise verification must keep distinct
// directions apart, so the survivors are those of the real hash.
func TestFoldParallelSurvivesHashCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	constant := func([]Term) uint64 { return 42 }
	twoKeys := func(ts []Term) uint64 { return math.MaxUint64 - uint64(len(ts)%2) } // probing wraps around
	for i := 0; i < 500; i++ {
		atoms := canonicalAtoms(noisyAtoms(rng, true))
		want := foldParallel(atoms, hashTerms)
		for name, hash := range map[string]func([]Term) uint64{"constant": constant, "two keys": twoKeys} {
			got := foldParallel(atoms, hash)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("case %d, %s hash: atom %d dominated=%v, want %v\natoms: %s", i, name, k, got[k], want[k], Conjunction{cs: atoms})
				}
			}
		}
	}
}

// TestFingerprintFollowsCanonicalEquality: over a pool of canonical forms
// with many repeats, two forms share the integer-fed fingerprint exactly
// when they are the same atoms — which is also exactly when they shared the
// string-fed one. (A 64-bit collision inside a pool this size would be news.)
func TestFingerprintFollowsCanonicalEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var pool []Conjunction
	for i := 0; i < 1500; i++ {
		atoms := noisyAtoms(rng, false)
		j := And(atoms...)
		pool = append(pool, j.Canon())
		// The same form reached another way: shuffled and rescaled.
		rng.Shuffle(len(atoms), func(a, b int) { atoms[a], atoms[b] = atoms[b], atoms[a] })
		for k, c := range atoms {
			atoms[k] = Constraint{Expr: c.Expr.Scale(rational.New(int64(rng.Intn(9)+1), int64(rng.Intn(9)+1))), Op: c.Op}
		}
		again := And(atoms...).Canon()
		if !equalAtoms(again.cs, j.Canon().cs) || again.fp != j.Canon().fp {
			t.Fatalf("case %d: shuffled and rescaled form canonicalises or fingerprints differently:\n %s\n %s", i, j.Canon(), again)
		}
		pool = append(pool, again)
	}
	byNew, byOld := map[uint64]Conjunction{}, map[uint64]Conjunction{}
	for _, j := range pool {
		if prev, ok := byNew[j.fp]; ok && !equalAtoms(prev.cs, j.cs) {
			t.Fatalf("distinct canonical forms share a fingerprint:\n %s\n %s", prev, j)
		}
		byNew[j.fp] = j
		old := referenceFingerprint(j.cs)
		if prev, ok := byOld[old]; ok && prev.fp != j.fp {
			t.Fatalf("forms the string-fed fingerprint identified now differ:\n %s\n %s", prev, j)
		}
		byOld[old] = j
	}
	if len(byNew) != len(byOld) {
		t.Fatalf("fingerprint classes: %d integer-fed, %d string-fed", len(byNew), len(byOld))
	}
	// Neighbours a careless field layout would confuse.
	x, y := Var("x"), Var("y")
	two := rational.FromInt(2)
	distinct := []Conjunction{
		And(Constraint{Expr: x.Scale(two).Add(y), Op: Le}), // x + 1/2y <= 0
		And(Constraint{Expr: x.Add(y.Scale(two)), Op: Le}), // x + 2y <= 0
		And(Constraint{Expr: x.Add(y).Sub(ConstInt(2)), Op: Le}),
		And(Constraint{Expr: x.Sub(ConstInt(2)), Op: Le}, Constraint{Expr: y, Op: Le}),
		And(Constraint{Expr: Var("xy").Sub(ConstInt(2)), Op: Le}),
		And(Constraint{Expr: x.Sub(ConstInt(2)), Op: Eq}),
		And(Constraint{Expr: x.Sub(ConstInt(2)), Op: Lt}),
		And(Constraint{Expr: x.Sub(ConstInt(2)), Op: Le}),
		And(Constraint{Expr: x.Sub(Const(rational.New(1, 2))), Op: Le}),
		True(), False(),
	}
	seen := map[uint64]Conjunction{}
	for _, j := range distinct {
		if prev, ok := seen[j.Fingerprint()]; ok {
			t.Errorf("%s and %s share a fingerprint", prev, j)
		}
		seen[j.Fingerprint()] = j
	}
}

// TestRenderersMatchReference: the append/strconv renderers print what the
// fmt and strings.Builder ones printed, byte for byte.
func TestRenderersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 2000; i++ {
		atoms := noisyAtoms(rng, true)
		for _, c := range atoms {
			if got, want := c.Expr.String(), referenceExprString(c.Expr); got != want {
				t.Fatalf("Expr.String() = %q, want %q", got, want)
			}
			if got, want := c.String(), referenceConstraintString(c); got != want {
				t.Fatalf("Constraint.String() = %q, want %q", got, want)
			}
			cc := c.Canonical()
			if got, want := c.Key(), cc.Op.String()+"|"+referenceExprString(cc.Expr); got != want {
				t.Fatalf("Constraint.Key() = %q, want %q", got, want)
			}
		}
		for _, j := range []Conjunction{{cs: atoms}, And(atoms...).Canon()} {
			want := referenceConjunctionString(j)
			if got := j.String(); got != want {
				t.Fatalf("Conjunction.String() = %q, want %q", got, want)
			}
			if got := string(j.AppendTo([]byte("("))); got != "("+want {
				t.Fatalf("Conjunction.AppendTo = %q, want %q", got, "("+want)
			}
		}
	}
	if got := True().String(); got != "true" {
		t.Errorf("True().String() = %q", got)
	}
	if got := False().String(); got != "0 < 0" {
		t.Errorf("False().String() = %q", got)
	}
	if got := Op(7).String(); got != "Op(7)" {
		t.Errorf("Op(7).String() = %q", got)
	}
}

func TestIsFalse(t *testing.T) {
	x := Var("x")
	undecided := And(Constraint{Expr: x, Op: Lt}, Constraint{Expr: x.Neg(), Op: Lt}) // x < 0, x > 0
	for _, tc := range []struct {
		name string
		j    Conjunction
		want bool
	}{
		{"False()", False(), true},
		{"rebuilt sentinel", And(False().Constraints()...), true},
		{"True()", True(), false},
		{"1 <= 0, undecided", And(Constraint{Expr: ConstInt(1), Op: Le}), false},
		{"1 <= 0, canonical", And(Constraint{Expr: ConstInt(1), Op: Le}).Canon(), true},
		{"unsatisfiable, undecided", undecided, false},
		{"unsatisfiable, simplified", undecided.Simplify(), true},
		{"satisfiable, simplified", And(Constraint{Expr: x, Op: Lt}).Simplify(), false},
	} {
		if got := tc.j.IsFalse(); got != tc.want {
			t.Errorf("%s: IsFalse() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func intBox(x0, x1, y0, y1 int64) Conjunction {
	q := rational.FromInt
	return And(GeConst("x", q(x0)), LeConst("x", q(x1)), GeConst("y", q(y0)), LeConst("y", q(y1))).Canon()
}

// TestMergeCanonAllocs is the guard that keeps a rendering comparator or a
// rendered map key from coming back: Merge+Canon of two 4-atom boxes was 46
// allocations when both existed.
func TestMergeCanonAllocs(t *testing.T) {
	a, b := intBox(0, 10, 0, 10), intBox(5, 15, 5, 15)
	if got := testing.AllocsPerRun(200, func() { _ = a.Merge(b).Canon() }); got > 24 {
		t.Errorf("Merge+Canon of two 4-atom boxes: %.0f allocations, ceiling 24", got)
	}
}
