package constraint

import (
	"math/rand"
	"testing"

	"cdb/internal/rational"
)

// box returns the conjunction lo <= v <= hi.
func box(v string, lo, hi string) Conjunction {
	return And(GeConst(v, q(lo)), LeConst(v, q(hi)))
}

func TestSatisfiabilityBasics(t *testing.T) {
	tests := []struct {
		name string
		j    Conjunction
		want bool
	}{
		{"empty", True(), true},
		{"false", False(), false},
		{"point", And(EqConst("x", q("3"))), true},
		{"interval", box("x", "0", "1"), true},
		{"empty interval", box("x", "1", "0"), false},
		{"degenerate closed", box("x", "1", "1"), true},
		{"degenerate open", And(GtConst("x", q("1")), LtConst("x", q("1"))), false},
		{"half open empty", And(GeConst("x", q("1")), LtConst("x", q("1"))), false},
		{"strict gap", And(GtConst("x", q("1")), LtConst("x", q("2"))), true},
		{"eq vs ineq", And(EqConst("x", q("5")), LeConst("x", q("4"))), false},
		{"eq chain", And(EqConst("x", q("1")), MustNew(Var("y"), "=", Var("x")), LeConst("y", q("0"))), false},
		{"2d triangle", And(
			GeConst("x", q("0")), GeConst("y", q("0")),
			MustNew(Var("x").Add(Var("y")), "<=", ConstInt(1))), true},
		{"2d empty", And(
			GeConst("x", q("2")), GeConst("y", q("2")),
			MustNew(Var("x").Add(Var("y")), "<=", ConstInt(1))), false},
		{"paper example x=y and x<2", And(
			MustNew(Var("x"), "=", Var("y")), LtConst("x", q("2"))), true},
		{"x+y=2.5", And(MustNew(Var("x").Add(Var("y")), "=", Const(q("5/2")))), true},
	}
	for _, tt := range tests {
		if got := tt.j.IsSatisfiable(); got != tt.want {
			t.Errorf("%s: IsSatisfiable = %v, want %v (%s)", tt.name, got, tt.want, tt.j)
		}
	}
}

func TestEntails(t *testing.T) {
	j := box("x", "0", "2")
	if !j.Entails(LeConst("x", q("3"))) {
		t.Error("0<=x<=2 should entail x<=3")
	}
	if j.Entails(LeConst("x", q("1"))) {
		t.Error("0<=x<=2 should not entail x<=1")
	}
	if !j.Entails(LeConst("x", q("2"))) {
		t.Error("boundary entailment x<=2 failed")
	}
	if j.Entails(LtConst("x", q("2"))) {
		t.Error("0<=x<=2 should not entail x<2")
	}
	// Equality entailment.
	pt := And(EqConst("x", q("1")), EqConst("y", q("2")))
	if !pt.Entails(MustNew(Var("x").Add(Var("y")), "=", ConstInt(3))) {
		t.Error("point should entail x+y=3")
	}
	// Implicit equality from two inequalities.
	sandwich := And(LeConst("x", q("1")), GeConst("x", q("1")))
	if !sandwich.Entails(EqConst("x", q("1"))) {
		t.Error("x<=1 ∧ x>=1 should entail x=1")
	}
}

func TestEquivalent(t *testing.T) {
	a := box("x", "0", "1")
	b := And(
		MustNew(Var("x").Scale(q("2")), ">=", ConstInt(0)),
		MustNew(Var("x").Scale(q("3")), "<=", ConstInt(3)),
	)
	if !a.Equivalent(b) {
		t.Error("scaled boxes not equivalent")
	}
	if a.Equivalent(box("x", "0", "2")) {
		t.Error("different boxes equivalent")
	}
	if !False().Equivalent(box("x", "2", "1")) {
		t.Error("two unsatisfiable conjunctions should be equivalent")
	}
	if False().Equivalent(a) {
		t.Error("false equivalent to satisfiable")
	}
}

func TestSimplify(t *testing.T) {
	j := And(
		LeConst("x", q("5")),
		LeConst("x", q("3")), // dominates x<=5
		LeConst("x", q("3")), // duplicate
		GeConst("x", q("0")),
	)
	s := j.Simplify()
	if s.Len() != 2 {
		t.Errorf("Simplify kept %d constraints (%s), want 2", s.Len(), s)
	}
	if !s.Equivalent(j) {
		t.Error("Simplify changed semantics")
	}
	if got := box("x", "2", "1").Simplify(); got.IsSatisfiable() {
		t.Error("Simplify of unsat not False")
	}
	// Redundant non-parallel constraint: x>=0 ∧ y>=0 entails x+y>=0.
	k := And(GeConst("x", q("0")), GeConst("y", q("0")),
		MustNew(Var("x").Add(Var("y")), ">=", ConstInt(0)))
	if ks := k.Simplify(); ks.Len() != 2 {
		t.Errorf("entailed constraint not removed: %s", ks)
	}
}

func TestEliminateProjection(t *testing.T) {
	// Triangle 0<=x, 0<=y, x+y<=1 projected onto x is [0,1].
	tri := And(GeConst("x", q("0")), GeConst("y", q("0")),
		MustNew(Var("x").Add(Var("y")), "<=", ConstInt(1)))
	px := tri.Project("x")
	iv, ok := px.VarBounds("x")
	if !ok || !iv.HasLower || !iv.HasUpper {
		t.Fatalf("projection bounds missing: %v %v", iv, ok)
	}
	if !iv.Lower.IsZero() || !iv.Upper.Equal(q("1")) || iv.LowerOpen || iv.UpperOpen {
		t.Errorf("projection of triangle onto x = %+v", iv)
	}
	// Projecting away everything from a satisfiable system yields true.
	if got := tri.Eliminate("x", "y"); !got.IsSatisfiable() || got.Len() != 0 {
		t.Errorf("full elimination = %s", got)
	}
	// Equality substitution: x = y ∧ 0<=y<=2, eliminate y -> 0<=x<=2.
	j := And(MustNew(Var("x"), "=", Var("y"))).Merge(box("y", "0", "2"))
	pj := j.Eliminate("y")
	if !pj.Equivalent(box("x", "0", "2")) {
		t.Errorf("eliminate via equality = %s", pj)
	}
}

func TestEliminateStrictness(t *testing.T) {
	// y < x ∧ x <= 3, eliminate x: y < 3.
	j := And(MustNew(Var("y"), "<", Var("x")), LeConst("x", q("3")))
	p := j.Eliminate("x")
	iv, ok := p.VarBounds("y")
	if !ok || !iv.HasUpper || !iv.UpperOpen || !iv.Upper.Equal(q("3")) {
		t.Errorf("strictness lost: %+v ok=%v", iv, ok)
	}
}

func TestEliminateUnsatisfiable(t *testing.T) {
	j := And(LeConst("x", q("0")), GeConst("x", q("1")), LeConst("y", q("5")))
	p := j.Eliminate("x")
	if p.IsSatisfiable() {
		t.Errorf("projection of unsat system satisfiable: %s", p)
	}
}

func TestVarBounds(t *testing.T) {
	j := And(GtConst("x", q("-1")), LeConst("x", q("7/2")))
	iv, ok := j.VarBounds("x")
	if !ok {
		t.Fatal("unexpected unsat")
	}
	if !iv.HasLower || !iv.LowerOpen || !iv.Lower.Equal(q("-1")) {
		t.Errorf("lower = %+v", iv)
	}
	if !iv.HasUpper || iv.UpperOpen || !iv.Upper.Equal(q("7/2")) {
		t.Errorf("upper = %+v", iv)
	}
	// Unbounded variable.
	free := And(LeConst("y", q("0")))
	iv2, ok := free.VarBounds("x")
	if !ok || iv2.HasLower || iv2.HasUpper {
		t.Errorf("free var bounds = %+v", iv2)
	}
	// Point.
	iv3, _ := And(EqConst("x", q("4"))).VarBounds("x")
	if !iv3.IsPoint() || !iv3.Lower.Equal(q("4")) {
		t.Errorf("point bounds = %+v", iv3)
	}
	// Unsat.
	if _, ok := box("x", "1", "0").VarBounds("x"); ok {
		t.Error("bounds of unsat reported ok")
	}
}

func TestIntervalPredicates(t *testing.T) {
	iv := Interval{Lower: q("0"), Upper: q("1"), HasLower: true, HasUpper: true}
	if !iv.Contains(q("0")) || !iv.Contains(q("1")) || !iv.Contains(q("1/2")) {
		t.Error("closed interval containment")
	}
	if iv.Contains(q("-1")) || iv.Contains(q("2")) {
		t.Error("outside containment")
	}
	open := Interval{Lower: q("0"), Upper: q("1"), HasLower: true, HasUpper: true, LowerOpen: true, UpperOpen: true}
	if open.Contains(q("0")) || open.Contains(q("1")) {
		t.Error("open interval endpoints contained")
	}
	if !(Interval{Lower: q("1"), Upper: q("1"), HasLower: true, HasUpper: true, UpperOpen: true}).IsEmpty() {
		t.Error("half-open point not empty")
	}
}

func TestHoldsConjunction(t *testing.T) {
	tri := And(GeConst("x", q("0")), GeConst("y", q("0")),
		MustNew(Var("x").Add(Var("y")), "<=", ConstInt(1)))
	ok, err := tri.Holds(map[string]rational.Rat{"x": q("1/4"), "y": q("1/4")})
	if err != nil || !ok {
		t.Errorf("interior point: %v %v", ok, err)
	}
	ok, _ = tri.Holds(map[string]rational.Rat{"x": q("1"), "y": q("1")})
	if ok {
		t.Error("exterior point held")
	}
}

func TestSubtractDNF(t *testing.T) {
	// [0,4] - [1,2] = [0,1) ∪ (2,4].
	d := Subtract(box("x", "0", "4"), box("x", "1", "2"))
	pts := map[string]bool{
		"0": true, "1/2": true, "1": false, "3/2": false,
		"2": false, "5/2": true, "4": true, "5": false, "-1": false,
	}
	for xs, want := range pts {
		got, err := d.Holds(map[string]rational.Rat{"x": q(xs)})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("x=%s: in difference = %v, want %v", xs, got, want)
		}
	}
	// Disjuncts must be pairwise disjoint (staircase property).
	for i := range d {
		for k := i + 1; k < len(d); k++ {
			if d[i].Merge(d[k]).IsSatisfiable() {
				t.Errorf("disjuncts %d and %d overlap", i, k)
			}
		}
	}
}

func TestSubtractEverything(t *testing.T) {
	d := Subtract(box("x", "0", "1"), box("x", "-1", "2"))
	if len(d) != 0 {
		t.Errorf("subtracting a superset left %v", d)
	}
}

func TestSubtractDisjoint(t *testing.T) {
	d := Subtract(box("x", "0", "1"), box("x", "5", "6"))
	if len(d) == 0 {
		t.Fatal("subtracting disjoint region emptied the set")
	}
	// The union of disjuncts must be equivalent to the original box:
	// sample a grid.
	for _, xs := range []string{"0", "1/2", "1"} {
		ok, _ := d.Holds(map[string]rational.Rat{"x": q(xs)})
		if !ok {
			t.Errorf("x=%s lost", xs)
		}
	}
}

func TestSubtractAll(t *testing.T) {
	// [0,10] - [1,2] - [3,4] : check representative points.
	d := SubtractAll(box("x", "0", "10"), []Conjunction{box("x", "1", "2"), box("x", "3", "4")})
	want := map[string]bool{"0": true, "3/2": false, "5/2": true, "7/2": false, "9": true}
	for xs, w := range want {
		got, _ := d.Holds(map[string]rational.Rat{"x": q(xs)})
		if got != w {
			t.Errorf("x=%s: %v, want %v", xs, got, w)
		}
	}
}

func TestComplementEquality2D(t *testing.T) {
	// Subtracting the line x=y from a square leaves two open triangles.
	sq := box("x", "0", "1").Merge(box("y", "0", "1"))
	line := And(MustNew(Var("x"), "=", Var("y")))
	d := Subtract(sq, line)
	at := func(x, y string) bool {
		ok, _ := d.Holds(map[string]rational.Rat{"x": q(x), "y": q(y)})
		return ok
	}
	if at("1/2", "1/2") {
		t.Error("diagonal point survived subtraction")
	}
	if !at("1/4", "3/4") || !at("3/4", "1/4") {
		t.Error("off-diagonal points lost")
	}
}

// TestQuickSubtractPointwise property-tests DNF subtraction against direct
// pointwise evaluation on random 1-D interval pairs.
func TestQuickSubtractPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		a, b := rational.FromInt(int64(rng.Intn(20)-10)), rational.FromInt(int64(rng.Intn(20)-10))
		c, d := rational.FromInt(int64(rng.Intn(20)-10)), rational.FromInt(int64(rng.Intn(20)-10))
		j1 := And(GeConst("x", rational.Min(a, b)), LeConst("x", rational.Max(a, b)))
		j2 := And(GeConst("x", rational.Min(c, d)), LeConst("x", rational.Max(c, d)))
		diff := Subtract(j1, j2)
		for p := -12; p <= 12; p++ {
			pt := map[string]rational.Rat{"x": rational.New(int64(p), 1)}
			in1, _ := j1.Holds(pt)
			in2, _ := j2.Holds(pt)
			got, _ := diff.Holds(pt)
			if got != (in1 && !in2) {
				t.Fatalf("iter %d p=%d: diff=%v, want %v (j1=%s j2=%s)", iter, p, got, in1 && !in2, j1, j2)
			}
		}
	}
}

// TestQuickEliminatePreservesSolutions: for random 2-D systems, a point
// satisfies the projection iff it extends to a solution — checked in the
// sound direction (solution implies projection) plus bound tightness via
// the simplex cross-check in simplex_test.go.
func TestQuickEliminateSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 100; iter++ {
		var cs []Constraint
		n := 2 + rng.Intn(3)
		for i := 0; i < n; i++ {
			e := Var("x").Scale(rational.FromInt(int64(rng.Intn(5) - 2))).
				Add(Var("y").Scale(rational.FromInt(int64(rng.Intn(5) - 2)))).
				AddConst(rational.FromInt(int64(rng.Intn(11) - 5)))
			op := []Op{Le, Lt, Eq}[rng.Intn(3)]
			cs = append(cs, Constraint{Expr: e, Op: op})
		}
		j := And(cs...)
		proj := j.Eliminate("y")
		// Any concrete solution of j must satisfy the projection on x.
		for px := -6; px <= 6; px++ {
			for py := -6; py <= 6; py++ {
				pt := map[string]rational.Rat{
					"x": rational.FromInt(int64(px)),
					"y": rational.FromInt(int64(py)),
				}
				in, _ := j.Holds(pt)
				if in {
					pOK, _ := proj.Holds(map[string]rational.Rat{"x": rational.FromInt(int64(px))})
					if !pOK {
						t.Fatalf("iter %d: solution (%d,%d) of %s rejected by projection %s", iter, px, py, j, proj)
					}
				}
			}
		}
	}
}
