package vector

import (
	"math/rand"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/convert"
	"cdb/internal/geometry"
	"cdb/internal/rational"
)

func q(n int64) rational.Rat { return rational.FromInt(n) }

func boxConj(x0, y0, x1, y1 int64) constraint.Conjunction {
	return constraint.And(
		constraint.GeConst("x", q(x0)), constraint.LeConst("x", q(x1)),
		constraint.GeConst("y", q(y0)), constraint.LeConst("y", q(y1)),
	)
}

func TestFormOfEligibility(t *testing.T) {
	box := boxConj(0, 0, 4, 4).Canon()
	f := FormOf(box)
	if f == nil {
		t.Fatal("bounded box rejected")
	}
	if f.XVar != "x" || f.YVar != "y" {
		t.Fatalf("vars (%s, %s)", f.XVar, f.YVar)
	}
	if !f.Poly.Area().Equal(q(16)) {
		t.Fatalf("area = %s, want 16", f.Poly.Area())
	}
	// Memoized: same canonical form returns the same pointer.
	if FormOf(box) != f {
		t.Fatal("form not memoized on the canonical conjunction")
	}

	ineligible := []struct {
		name string
		j    constraint.Conjunction
	}{
		{"unbounded-quadrant", constraint.And(
			constraint.GeConst("x", q(0)), constraint.GeConst("y", q(0)))},
		{"half-open-strip", constraint.And(
			constraint.GeConst("x", q(0)), constraint.LeConst("x", q(4)),
			constraint.GeConst("y", q(0)))},
		{"three-vars", boxConj(0, 0, 4, 4).With(constraint.LeConst("z", q(1)))},
		{"one-var", constraint.And(
			constraint.GeConst("x", q(0)), constraint.LeConst("x", q(4)))},
		{"strict-atom", boxConj(0, 0, 4, 4).With(constraint.LtConst("x", q(3)))},
		{"equality-atom", boxConj(0, 0, 4, 4).With(
			constraint.Constraint{Expr: constraint.Var("x").Sub(constraint.Var("y")), Op: constraint.Eq})},
		{"unsat-box", boxConj(3, 0, 1, 4)},
		{"degenerate-point", constraint.And(
			constraint.GeConst("x", q(0)), constraint.LeConst("x", q(0)),
			constraint.GeConst("y", q(0)), constraint.LeConst("y", q(0)))},
		{"degenerate-segment", constraint.And(
			constraint.GeConst("x", q(0)), constraint.LeConst("x", q(5)),
			constraint.GeConst("y", q(2)), constraint.LeConst("y", q(2)))},
		{"false-sentinel", constraint.False()},
		{"true-sentinel", constraint.True()},
	}
	for _, tc := range ineligible {
		if FormOf(tc.j) != nil {
			t.Errorf("%s: expected ineligible", tc.name)
		}
		if FormOf(tc.j.Canon()) != nil {
			t.Errorf("%s (canon): expected ineligible", tc.name)
		}
	}
}

// TestFormOfRejectAllocs pins the probe's reject path: the pairing stage
// calls computeForm once for every fresh tuple of every binary operator, and
// for the shapes that can never have a polygon form — a third variable, an
// equality, a strict atom — the answer must cost no allocation.
func TestFormOfRejectAllocs(t *testing.T) {
	line := func(v string, slope rational.Rat) constraint.Constraint { // v = slope·t + 1
		return constraint.MustNew(constraint.Var(v), "=", constraint.Var("t").Scale(slope).Add(constraint.ConstInt(1)))
	}
	rejects := []struct {
		name string
		j    constraint.Conjunction
	}{
		{"hurricane-owner-parcel", boxConj(0, 0, 5, 5).With(
			constraint.GeConst("t", q(0)), constraint.LeConst("t", q(12)))},
		{"hurricane-track-segment", boxConj(0, 0, 5, 5).With(
			line("x", rational.New(7, 5)), line("y", rational.New(6, 5)),
			constraint.GeConst("t", q(0)), constraint.LeConst("t", q(5)))},
		{"strict-box", constraint.And(
			constraint.GtConst("x", q(0)), constraint.LtConst("x", q(4)),
			constraint.GtConst("y", q(0)), constraint.LtConst("y", q(4)))},
		{"box-one-strict-side", boxConj(0, 0, 4, 4).With(constraint.LtConst("x", q(3)))},
	}
	for _, tc := range rejects {
		for _, j := range []constraint.Conjunction{tc.j, tc.j.Canon()} {
			if computeForm(j) != nil {
				t.Fatalf("%s: expected ineligible", tc.name)
			}
			if n := testing.AllocsPerRun(100, func() { computeForm(j) }); n != 0 {
				t.Errorf("%s: computeForm allocates %v times on a reject, want 0", tc.name, n)
			}
		}
	}
}

func TestFormOfTriangleFromConvert(t *testing.T) {
	tri := geometry.MustPolygon(geometry.Pt(0, 0), geometry.Pt(6, 0), geometry.Pt(0, 6))
	j, err := convert.ConvexPolygonToConjunction(tri, "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	f := FormOf(j.Canon())
	if f == nil {
		t.Fatal("triangle conjunction rejected")
	}
	if !f.Poly.Area().Equal(tri.Area()) {
		t.Fatalf("area %s, want %s", f.Poly.Area(), tri.Area())
	}
	// Float bbox brackets the exact one.
	if f.MinX > 0 || f.MaxX < 6 || f.MinY > 0 || f.MaxY < 6 {
		t.Fatalf("float bbox [%g,%g]x[%g,%g] does not bracket [0,6]^2",
			f.MinX, f.MaxX, f.MinY, f.MaxY)
	}
}

// randomPoly builds a random convex polygon conjunction over (x, y), its
// form, and its canonical conjunction.
func randomPoly(rng *rand.Rand, t *testing.T) (constraint.Conjunction, *Form) {
	t.Helper()
	for {
		pts := make([]geometry.Point, 3+rng.Intn(5))
		for i := range pts {
			pts[i] = geometry.Pt(rng.Int63n(20), rng.Int63n(20))
		}
		hull, err := geometry.ConvexHull(pts)
		if err != nil {
			continue
		}
		j, err := convert.ConvexPolygonToConjunction(hull, "x", "y")
		if err != nil {
			continue
		}
		jc := j.Canon()
		f := FormOf(jc)
		if f == nil {
			t.Fatalf("random convex polygon ineligible: %s", jc)
		}
		return jc, f
	}
}

func TestPairSatAgainstFM(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var sats, rejects int
	for i := 0; i < 120; i++ {
		j1, f1 := randomPoly(rng, t)
		j2, f2 := randomPoly(rng, t)
		sat, floatReject := PairSat(f1, f2)
		want := j1.Merge(j2).Canon().IsSatisfiable()
		if sat != want {
			t.Fatalf("case %d: PairSat = %v, FM = %v\n j1: %s\n j2: %s", i, sat, want, j1, j2)
		}
		if floatReject && sat {
			t.Fatalf("case %d: float reject on a satisfiable pair", i)
		}
		if sat {
			sats++
		}
		if floatReject {
			rejects++
		}
	}
	if sats == 0 {
		t.Fatal("workload produced no satisfiable pairs; test is vacuous")
	}
}

func TestPairSatTouchingRegions(t *testing.T) {
	// Closed regions sharing only an edge are satisfiable together —
	// the degenerate clip must count as sat, exactly like FM.
	a := FormOf(boxConj(0, 0, 2, 2).Canon())
	b := FormOf(boxConj(2, 0, 4, 2).Canon())
	sat, _ := PairSat(a, b)
	if !sat {
		t.Fatal("edge-touching boxes reported unsat")
	}
	// Corner touch.
	c := FormOf(boxConj(2, 2, 4, 4).Canon())
	if sat, _ := PairSat(a, c); !sat {
		t.Fatal("corner-touching boxes reported unsat")
	}
	// Disjoint, far: the float filter must fire.
	d := FormOf(boxConj(100, 100, 102, 102).Canon())
	sat, reject := PairSat(a, d)
	if sat || !reject {
		t.Fatalf("far-disjoint: sat=%v reject=%v, want false/true", sat, reject)
	}
}

func TestSatExtrasAgainstFM(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randExtra := func() constraint.Constraint {
		a, b := rng.Int63n(7)-3, rng.Int63n(7)-3
		k := rng.Int63n(41) - 20
		expr := constraint.NewExpr([]constraint.Term{
			{Var: "x", Coef: q(a)}, {Var: "y", Coef: q(b)},
		}, q(k))
		switch rng.Intn(4) {
		case 0:
			return constraint.Constraint{Expr: expr, Op: constraint.Lt}
		case 1:
			return constraint.Constraint{Expr: expr, Op: constraint.Eq}
		default:
			return constraint.Constraint{Expr: expr, Op: constraint.Le}
		}
	}
	var decided, fallbacks, sats int
	for i := 0; i < 300; i++ {
		j, f := randomPoly(rng, t)
		extras := make([]constraint.Constraint, 1+rng.Intn(3))
		for k := range extras {
			extras[k] = randExtra()
		}
		sat, ok := SatExtras(f, extras)
		if !ok {
			fallbacks++
			continue
		}
		decided++
		want := j.With(extras...).Canon().IsSatisfiable()
		if sat != want {
			t.Fatalf("case %d: SatExtras = %v, FM = %v\n j: %s\n extras: %v", i, sat, want, j, extras)
		}
		if sat {
			sats++
		}
	}
	if decided == 0 || sats == 0 {
		t.Fatalf("vacuous run: decided=%d sat=%d (fallbacks=%d)", decided, sats, fallbacks)
	}
}

func TestSatExtrasConstantAtoms(t *testing.T) {
	f := FormOf(boxConj(0, 0, 4, 4).Canon())
	// Trivially false strict atom (0 < 0): must be unsat even though its
	// closed relaxation holds everywhere.
	falseAtom := constraint.Constraint{Expr: constraint.ConstInt(0), Op: constraint.Lt}
	if sat, ok := SatExtras(f, []constraint.Constraint{falseAtom}); !ok || sat {
		t.Fatalf("trivially false atom: sat=%v ok=%v, want false/true", sat, ok)
	}
	// Trivially true atom is skipped.
	trueAtom := constraint.Constraint{Expr: constraint.ConstInt(-1), Op: constraint.Le}
	if sat, ok := SatExtras(f, []constraint.Constraint{trueAtom}); !ok || !sat {
		t.Fatalf("trivially true atom: sat=%v ok=%v, want true/true", sat, ok)
	}
	// Extra variable: undecidable here.
	if _, ok := SatExtras(f, []constraint.Constraint{constraint.LeConst("z", q(1))}); ok {
		t.Fatal("extra variable should force fallback")
	}
	// Strict atom cutting to a degenerate region: undecidable here.
	degen := []constraint.Constraint{
		constraint.GeConst("x", q(4)), constraint.LtConst("y", q(10)),
	}
	if _, ok := SatExtras(f, degen); ok {
		t.Fatal("strict atom on a degenerate region should force fallback")
	}
	// Same degenerate cut without the strict atom: decidable, sat.
	if sat, ok := SatExtras(f, degen[:1]); !ok || !sat {
		t.Fatalf("closed degenerate cut: sat=%v ok=%v, want true/true", sat, ok)
	}
}
