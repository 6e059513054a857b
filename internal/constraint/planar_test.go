package constraint

import (
	"math"
	"math/rand"
	"testing"

	"cdb/internal/rational"
)

// hp is the half-plane a·x + b·y OP k.
func hp(a, b int64, op Op, k int64) Constraint {
	e := NewExpr([]Term{{Var: "x", Coef: rational.FromInt(a)}, {Var: "y", Coef: rational.FromInt(b)}}, rational.FromInt(-k))
	return Constraint{Expr: e, Op: op}
}

// unit square: 0 <= x <= 1, 0 <= y <= 1.
var square = []Constraint{hp(-1, 0, Le, 0), hp(1, 0, Le, 1), hp(0, -1, Le, 0), hp(0, 1, Le, 1)}

func with(base []Constraint, extra ...Constraint) []Constraint {
	return append(append([]Constraint{}, base...), extra...)
}

// TestSimplifyPlanarTable pins, shape by shape, whether the planar rule
// decides and which atoms survive. Every row is also compared with the
// reference. Each row was checked to fail under a matching mutation of the
// rule (named in the row): the rows are the rule's specification, not a
// restatement of its output.
func TestSimplifyPlanarTable(t *testing.T) {
	huge := rational.FromInt(math.MaxInt64 / 3)
	bigHP := func(a, b rational.Rat, op Op, k rational.Rat) Constraint {
		return Constraint{Expr: NewExpr([]Term{{Var: "x", Coef: a}, {Var: "y", Coef: b}}, k.Neg()), Op: op}
	}
	one := rational.One
	z := Constraint{Expr: Var("z").AddConst(rational.FromInt(-9)), Op: Le}
	rows := []struct {
		name    string
		atoms   []Constraint
		decided bool
		keep    []int // indexes of the survivors; nil with !decided means "whatever the reference says"
	}{
		// strict vertex rule — mutations: always drop / always keep a strict
		// vertex atom; ignore which atoms are still alive.
		{"strict atom touching a vertex the rest contains", with(square, hp(1, 1, Lt, 2)), true, []int{0, 1, 2, 3, 4}},
		{"strict atom touching a vertex another strict atom excludes",
			[]Constraint{hp(-1, 0, Le, 0), hp(1, 0, Lt, 1), hp(0, -1, Le, 0), hp(0, 1, Le, 1), hp(1, 1, Lt, 2)}, true, []int{0, 1, 2, 3}},
		{"two strict atoms through one vertex: last kept", with(square, hp(1, 1, Lt, 2), hp(1, 2, Lt, 3)), true, []int{0, 1, 2, 3, 5}},
		{"two strict atoms through one vertex, other order", with(square, hp(1, 2, Lt, 3), hp(1, 1, Lt, 2)), true, []int{0, 1, 2, 3, 5}},
		{"three strict atoms through one vertex", with(square, hp(2, 1, Lt, 3), hp(1, 1, Lt, 2), hp(1, 2, Lt, 3)), true, []int{0, 1, 2, 3, 6}},
		// mutation: keep a closed vertex atom.
		{"closed atom touching a vertex", with(square, hp(1, 1, Le, 2)), true, []int{0, 1, 2, 3}},
		{"closed then strict atom through one vertex", with(square, hp(1, 1, Le, 2), hp(1, 2, Lt, 3)), true, []int{0, 1, 2, 3, 5}},
		// mutations: flip a bound's side; treat empty as edge.
		{"atom the region does not reach", with(square, hp(1, 1, Le, 3), hp(1, 1, Lt, 5)), true, []int{0, 1, 2, 3}},
		{"corner cut off", with(square, hp(1, 1, Le, 1)), true, []int{0, 2, 4}},
		// degenerate or empty closure: no edge anywhere, or two atoms on one
		// line — mutations: answer without an edge; do not stop on a shared
		// line.
		{"segment", []Constraint{hp(-1, 0, Le, 0), hp(1, 0, Le, 1), hp(0, -1, Le, 0), hp(0, 1, Le, 0)}, false, nil},
		{"point", []Constraint{hp(-1, 0, Le, 0), hp(0, -1, Le, 0), hp(1, 1, Le, 0)}, false, nil},
		{"opposite normals on one line", []Constraint{hp(1, 0, Le, 1), hp(-1, 0, Le, -1), hp(0, -1, Le, 0)}, false, nil},
		{"same half-plane twice, closed and strict", with(square, hp(1, 0, Lt, 1)), false, nil},
		{"same half-plane at two scales", with(square, hp(2, 0, Le, 2)), false, nil},
		{"empty closure", []Constraint{hp(1, 0, Le, 0), hp(-1, 0, Le, -1), hp(0, -1, Le, 0)}, false, nil},
		{"unsat only by strictness, shared line", []Constraint{hp(1, 0, Lt, 1), hp(-1, 0, Le, -1)}, false, nil},
		{"unsat only by strictness, at a point", []Constraint{hp(-1, 0, Le, 0), hp(0, -1, Le, 0), hp(1, 1, Lt, 0)}, false, nil},
		// unbounded regions — mutation: require both ends of the interval.
		{"half-plane", []Constraint{hp(1, 1, Le, 3)}, true, []int{0}},
		{"strip with a slack bound", []Constraint{hp(-1, 0, Le, 0), hp(1, 0, Le, 1), hp(1, 0, Le, 5)}, true, []int{0, 1}},
		{"wedge with a slack bound", []Constraint{hp(-1, 0, Le, 0), hp(0, -1, Le, 0), hp(-1, -1, Le, 1)}, true, []int{0, 1}},
		{"wedge with a closed atom through its apex", []Constraint{hp(-1, 0, Le, 0), hp(0, -1, Le, 0), hp(-1, -1, Le, 0)}, true, []int{0, 1}},
		{"wedge with a strict atom through its apex", []Constraint{hp(-1, 0, Le, 0), hp(0, -1, Le, 0), hp(-1, -1, Lt, 0)}, true, []int{0, 1, 2}},
		// one variable: boundary lines are all parallel.
		{"one-variable interval", []Constraint{hp(-1, 0, Le, -1), hp(1, 0, Lt, 4), hp(1, 0, Le, 7)}, true, []int{0, 1}},
		{"one-variable empty interval", []Constraint{hp(1, 0, Le, 1), hp(-1, 0, Le, -3)}, false, nil},
		{"two one-variable atoms on different variables", []Constraint{hp(1, 0, Le, 1), hp(0, 1, Lt, 2)}, true, []int{0, 1}},
		// out of scope — mutations: read = as <=; ignore a third variable;
		// skip trivial atoms.
		{"equality atom", []Constraint{{Expr: Var("x").Sub(Var("y")), Op: Eq}, hp(1, 0, Le, 3), hp(1, 0, Le, 5)}, false, nil},
		{"three variables", with(square, z), false, nil},
		{"trivially true atom", with(square, Constraint{Expr: ConstInt(-1), Op: Le}), false, nil},
		{"the False sentinel", falseAtoms, false, nil},
		{"the empty conjunction", nil, false, nil},
		// promoted arithmetic: the products overflow int64.
		{"big.Rat coefficients", []Constraint{
			bigHP(huge.Neg(), rational.Zero, Le, rational.Zero), bigHP(huge, one, Le, huge.Mul(huge)),
			bigHP(rational.Zero, one.Neg(), Le, rational.Zero), bigHP(huge, huge, Le, huge.Mul(huge).Mul(huge)),
			bigHP(huge, one, Lt, huge.Mul(huge).Add(one)),
		}, true, []int{0, 1, 2}},
	}
	for _, row := range rows {
		j := Conjunction{cs: row.atoms}
		got, decided := j.simplifyPlanar()
		if decided != row.decided {
			t.Errorf("%s: planar rule decided = %v, want %v (%s)", row.name, decided, row.decided, j)
			continue
		}
		want := referenceSimplify(j, nil)
		if full := j.SimplifyWith(nil); !equalAtoms(full.cs, want.cs) {
			t.Errorf("%s: SimplifyWith = %s, reference %s", row.name, full, want)
		}
		if !decided {
			continue
		}
		var keep []Constraint
		for _, i := range row.keep {
			keep = append(keep, row.atoms[i])
		}
		if !equalAtoms(got.cs, keep) {
			t.Errorf("%s: planar rule kept %s, want %s", row.name, got, Conjunction{cs: keep})
		}
		if !equalAtoms(want.cs, keep) {
			t.Errorf("%s: the table disagrees with the reference: %s vs %s", row.name, Conjunction{cs: keep}, want)
		}
	}
}

// planarAtoms draws half-planes over {x, y} from ranges small enough that
// parallel lines, shared lines, atoms through a common vertex and empty
// regions all turn up often.
func planarAtoms(rng *rand.Rand) []Constraint {
	n := 1 + rng.Intn(9)
	oneVar := rng.Intn(8) == 0
	out := make([]Constraint, 0, n)
	for len(out) < n {
		a, b := int64(rng.Intn(7)-3), int64(rng.Intn(7)-3)
		if oneVar {
			b = 0
		}
		if a == 0 && b == 0 {
			continue
		}
		c := hp(a, b, []Op{Le, Le, Lt}[rng.Intn(3)], int64(rng.Intn(13)-4))
		if rng.Intn(6) == 0 {
			c.Expr = c.Expr.Scale(rational.New(int64(1+rng.Intn(3)), int64(1+rng.Intn(3))))
		}
		out = append(out, c)
	}
	return out
}

// checkSimplify compares SimplifyWith with the reference on j and, for a
// canonical j the planar rule decides, checks the result is what Canon
// would have made of it. It reports whether the planar rule decided.
func checkSimplify(t *testing.T, name string, j Conjunction) bool {
	t.Helper()
	got, want := j.SimplifyWith(nil), referenceSimplify(j, nil)
	if !equalAtoms(got.cs, want.cs) {
		t.Fatalf("%s: SimplifyWith diverged from the reference\ninput: %s\ngot:   %s\nwant:  %s", name, j, got, want)
	}
	_, decided := j.simplifyPlanar()
	if decided && j.canon {
		re := Conjunction{cs: want.cs}.Canon()
		if !got.canon || got.fp != re.fp || !equalAtoms(got.cs, re.cs) || got.env == nil || got.aux == nil {
			t.Fatalf("%s: result of a canonical input is not the canonical form of the reference\ninput: %s\ngot:   %s (canon=%v fp=%x)\nwant:  %s (fp=%x)",
				name, j, got, got.canon, got.fp, re, re.fp)
		}
		if len(got.cs) != len(j.cs) && (got.env == j.env || got.aux == j.aux) {
			t.Fatalf("%s: a changed conjunction shares its input's memo boxes", name)
		}
	}
	return decided
}

// TestSimplifyMatchesReference: atom for atom, in order, SimplifyWith
// returns what the elimination-based reference returns — on planar noise
// (raw and canonical), on the canon corpus generators and on merges of
// canonical operands. The planar rule must carry a real share of it.
func TestSimplifyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	decided, total := 0, 0
	count := func(d bool) {
		total++
		if d {
			decided++
		}
	}
	for i := 0; i < 4000; i++ {
		j := And(planarAtoms(rng)...)
		count(checkSimplify(t, "planar", j))
		count(checkSimplify(t, "planar canon", j.Canon()))
	}
	if decided*4 < total {
		t.Fatalf("the planar rule decided only %d of %d planar cases: the comparison is close to vacuous", decided, total)
	}
	for i := 0; i < 600; i++ {
		j := And(noisyAtoms(rng, i%7 == 0)...)
		checkSimplify(t, "noisy", j)
		checkSimplify(t, "noisy canon", j.Canon())
	}
	for i := 0; i < 500; i++ {
		j := randConj(rng)
		checkSimplify(t, "randConj", j)
		checkSimplify(t, "randConj canon", j.Canon())
	}
	for i := 0; i < 1000; i++ {
		a, b := And(planarAtoms(rng)...).Canon(), And(planarAtoms(rng)...).Canon()
		checkSimplify(t, "merge", a.Merge(b))
		checkSimplify(t, "merge canon", a.Merge(b).Canon())
	}
}

// TestIrredundantMemo: the planar rule flags what it leaves irredundant,
// SimplifyWith returns a flagged conjunction as it is, and the flag is a
// memo, not identity — Canon keeps it, fingerprints, equality and
// rendering ignore it, and every constructor that changes the atoms leaves
// it clear. Under ForceIrrClear the rule flags nothing and leaves the same
// atoms.
func TestIrredundantMemo(t *testing.T) {
	// The unit square with a redundant bound and a strict cut through a
	// corner, which the rule keeps.
	raw := And(with(square, hp(1, 0, Le, 2), hp(-1, -1, Lt, 0))...).Canon()
	j := raw.SimplifyPlanar()
	if !j.irr || j.Len() != 5 {
		t.Fatalf("SimplifyPlanar of %s = %s, irr %v: want the five irredundant atoms, flagged", raw, j, j.irr)
	}
	if got := j.SimplifyWith(nil); !got.irr || !equalAtoms(got.cs, j.cs) {
		t.Fatalf("SimplifyWith of a flagged %s = %s", j, got)
	}
	bare := Conjunction{cs: j.cs, canon: true, fp: j.fp}
	if got := bare.SimplifyWith(nil); !equalAtoms(got.cs, j.cs) {
		t.Fatalf("SimplifyWith of %s unflagged = %s", j, got)
	}
	if c := j.Canon(); !c.irr || j.Fingerprint() != bare.Fingerprint() || !j.EqualCanonical(bare) || j.String() != bare.String() || j.Key() != bare.Key() {
		t.Fatalf("the memo changed identity: Canon irr %v, fingerprints %x %x, %q %q", c.irr, j.Fingerprint(), bare.Fingerprint(), j, bare)
	}
	for name, got := range map[string]Conjunction{
		"With":            j.With(hp(0, 1, Le, 3)),
		"Merge":           j.Merge(And(hp(1, 0, Lt, 5))),
		"insert":          j.insert(hp(0, 1, Lt, 1)),
		"Substitute":      j.Substitute("y", Var("x")),
		"RenameAll":       j.RenameAll(map[string]string{"x": "u"}),
		"Eliminate":       j.Eliminate("y"),
		"Project":         j.Project("x"),
		"Canon of a copy": And(j.cs...).Canon(),
	} {
		if got.irr {
			t.Errorf("%s: %s left flagged irredundant", name, got)
		}
	}
	ForceIrrClear(true)
	defer ForceIrrClear(false)
	if got := raw.SimplifyPlanar(); got.irr || !equalAtoms(got.cs, j.cs) {
		t.Fatalf("under ForceIrrClear SimplifyPlanar of %s = %s, irr %v", raw, got, got.irr)
	}
}
