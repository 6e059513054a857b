package constraint

import (
	"math/rand"
	"testing"

	"cdb/internal/rational"
)

// randConj builds a random conjunction of up to 4 linear constraints over
// {x, y, z} with small integer coefficients — small enough that the
// quickcheck loops below can afford full semantic (Equivalent) comparisons.
func randConj(rng *rand.Rand) Conjunction {
	n := rng.Intn(5)
	cs := make([]Constraint, 0, n)
	vars := []string{"x", "y", "z"}
	for i := 0; i < n; i++ {
		e := ConstInt(int64(rng.Intn(21) - 10))
		terms := 0
		for _, v := range vars {
			if rng.Intn(2) == 0 {
				coef := int64(rng.Intn(9) - 4)
				if coef == 0 {
					continue
				}
				e = e.Add(Var(v).Scale(rational.FromInt(coef)))
				terms++
			}
		}
		if terms == 0 {
			// Constant-only atoms are trivial; make Le so roughly half are
			// trivially true and half trivially false.
			cs = append(cs, Constraint{Expr: e, Op: Le})
			continue
		}
		cs = append(cs, Constraint{Expr: e, Op: []Op{Eq, Le, Lt}[rng.Intn(3)]})
	}
	return And(cs...)
}

// TestCanonProperties is the quickcheck-style contract of Canon: it
// preserves semantics, is idempotent, and never grows the conjunction.
func TestCanonProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		j := randConj(rng)
		cj := j.Canon()
		if !j.Equivalent(cj) {
			t.Fatalf("case %d: Canon changed semantics\nbefore: %s\nafter:  %s", i, j, cj)
		}
		if cc := cj.Canon(); !equalAtoms(cc.cs, cj.cs) || cc.fp != cj.fp {
			t.Fatalf("case %d: Canon not idempotent\nonce:  %s\ntwice: %s", i, cj, cc)
		}
		if cj.Len() > j.Len() {
			t.Fatalf("case %d: Canon grew the conjunction: %d -> %d atoms\nbefore: %s\nafter:  %s",
				i, j.Len(), cj.Len(), j, cj)
		}
	}
}

// TestFingerprintInvariance checks that the fingerprint is stable under the
// syntactic noise Canon is meant to absorb — atom reordering and positive
// rescaling — and that it distinguishes semantically different forms often
// enough to be a useful key (a strict inequality vs its non-strict twin).
func TestFingerprintInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		j := randConj(rng)
		cs := append([]Constraint{}, j.Constraints()...)
		rng.Shuffle(len(cs), func(a, b int) { cs[a], cs[b] = cs[b], cs[a] })
		shuffled := And(cs...)
		if j.Fingerprint() != shuffled.Fingerprint() {
			t.Fatalf("case %d: fingerprint not order-invariant: %s", i, j)
		}
		if !j.EqualCanonical(shuffled) {
			t.Fatalf("case %d: EqualCanonical not order-invariant: %s", i, j)
		}
		// Rescale every atom by a positive rational (any nonzero works for
		// equalities, but positive is valid for every operator).
		scaled := make([]Constraint, len(cs))
		for k, c := range cs {
			f := rational.New(int64(rng.Intn(5)+1), int64(rng.Intn(5)+1))
			scaled[k] = Constraint{Expr: c.Expr.Scale(f), Op: c.Op}
		}
		if j.Fingerprint() != And(scaled...).Fingerprint() {
			t.Fatalf("case %d: fingerprint not scale-invariant: %s", i, j)
		}
	}
	// Distinctness spot checks.
	le := And(Constraint{Expr: Var("x").Sub(ConstInt(1)), Op: Le})
	lt := And(Constraint{Expr: Var("x").Sub(ConstInt(1)), Op: Lt})
	if le.Fingerprint() == lt.Fingerprint() {
		t.Error("x <= 1 and x < 1 share a fingerprint")
	}
	if le.EqualCanonical(lt) {
		t.Error("x <= 1 and x < 1 compare EqualCanonical")
	}
}

// TestCanonFoldsParallelBounds checks the half-plane folding: parallel
// bounds keep only the tighter one, duplicates collapse, trivially true
// atoms vanish.
func TestCanonFoldsParallelBounds(t *testing.T) {
	x := Var("x")
	j := And(
		Constraint{Expr: x.Sub(ConstInt(5)), Op: Le},                            // x <= 5
		Constraint{Expr: x.Scale(rational.FromInt(2)).Sub(ConstInt(6)), Op: Le}, // 2x <= 6, i.e. x <= 3
		Constraint{Expr: x.Sub(ConstInt(5)), Op: Le},                            // duplicate
		Constraint{Expr: ConstInt(-1), Op: Le},                                  // trivially true
	)
	cj := j.Canon()
	if cj.Len() != 1 {
		t.Fatalf("want 1 folded atom, got %d: %s", cj.Len(), cj)
	}
	want := And(Constraint{Expr: x.Sub(ConstInt(3)), Op: Le})
	if !cj.EqualCanonical(want) {
		t.Fatalf("folded to %s, want x <= 3", cj)
	}
	// Equal bound, mixed strictness: the strict one wins.
	k := And(
		Constraint{Expr: x.Sub(ConstInt(3)), Op: Le},
		Constraint{Expr: x.Sub(ConstInt(3)), Op: Lt},
	).Canon()
	if k.Len() != 1 || k.Constraints()[0].Op != Lt {
		t.Fatalf("strictness fold: got %s", k)
	}
}

// TestFalseSentinelSurvivesCanon is the regression test for the False()
// sentinel (0 < 0): it must survive Canon and Fingerprint unchanged, and
// And/With must not drop it (only trivially *true* atoms are dropped).
func TestFalseSentinelSurvivesCanon(t *testing.T) {
	f := False()
	if f.IsSatisfiable() {
		t.Fatal("False() is satisfiable")
	}
	if f.Len() != 1 {
		t.Fatalf("False() has %d atoms, want 1", f.Len())
	}
	// Canon on the pre-flagged sentinel is the identity.
	if cf := f.Canon(); !equalAtoms(cf.cs, f.cs) || cf.fp != f.fp {
		t.Fatalf("Canon perturbed False(): %#v", cf)
	}
	// Rebuilding the sentinel through And clears the canon flag; Canon must
	// collapse it right back to the identical sentinel, fingerprint and all.
	rebuilt := And(f.Constraints()...)
	if rebuilt.Len() != 1 {
		t.Fatalf("And dropped the false sentinel: %d atoms", rebuilt.Len())
	}
	if rebuilt.Fingerprint() != f.Fingerprint() {
		t.Fatal("rebuilt sentinel changed fingerprint")
	}
	if !rebuilt.EqualCanonical(f) {
		t.Fatal("rebuilt sentinel not EqualCanonical to False()")
	}
	// With must keep the sentinel when extending, and Canon of any
	// conjunction containing it must collapse to exactly False().
	ext := f.With(Constraint{Expr: Var("x").Sub(ConstInt(1)), Op: Le})
	if ext.IsSatisfiable() {
		t.Fatal("extending False() became satisfiable")
	}
	if cj := ext.Canon(); !equalAtoms(cj.cs, f.cs) || cj.fp != f.fp {
		t.Fatalf("Canon of extended-false is not the False() sentinel: %s", cj)
	}
	// A trivially false atom anywhere collapses the whole conjunction.
	mixed := And(
		Constraint{Expr: Var("y"), Op: Le},
		Constraint{Expr: ConstInt(3), Op: Lt}, // 3 < 0
	)
	if cj := mixed.Canon(); cj.Fingerprint() != f.Fingerprint() {
		t.Fatalf("trivially false atom did not collapse to False(): %s", cj)
	}
}

// TestTrueCanonical checks the other distinguished form: the empty
// conjunction is canonical, with a stable fingerprint distinct from False.
func TestTrueCanonical(t *testing.T) {
	tr := True()
	if cj := tr.Canon(); cj.Len() != 0 || cj.fp != tr.fp {
		t.Fatalf("Canon perturbed True(): %#v", cj)
	}
	if tr.Fingerprint() == False().Fingerprint() {
		t.Fatal("True and False share a fingerprint")
	}
	if And().Fingerprint() != tr.Fingerprint() {
		t.Fatal("And() and True() disagree")
	}
}

// TestCanonKeepsAtomsThatRenderAlike: a variable name may hold any bytes,
// so the upper bounds of x at 1 and of a variable named "x - 1" at 0 both
// render "x - 1" as expressions. They are two atoms, and Canon, the staircase's
// insert, the box merge and SimplifyWith's duplicate pass keep both, in one
// order whatever order they come in.
func TestCanonKeepsAtomsThatRenderAlike(t *testing.T) {
	a, b := LeConst("x", q("1")), LeConst("x - 1", q("0"))
	if a.Expr.String() != b.Expr.String() {
		t.Fatalf("fixture: %q and %q should render alike", a.Expr, b.Expr)
	}
	want := And(a, b).Canon()
	if want.Len() != 2 {
		t.Fatalf("Canon of %q and %q keeps %d atoms, want 2", a, b, want.Len())
	}
	for name, got := range map[string]Conjunction{
		"Canon, other order":   And(b, a).Canon(),
		"insert":               And(a).Canon().insert(b),
		"insert, other order":  And(b).Canon().insert(a),
		"BoxMerge":             must(BoxMerge(And(a, GeConst("x", q("0"))).Canon(), And(b, GeConst("x - 1", q("0"))).Canon())),
		"SimplifyWith raw":     And(a, b).SimplifyWith(nil).Canon(),
		"SimplifyWith of both": And(b, a, a).SimplifyWith(nil).Canon(),
	} {
		ws := want.cs
		if name == "BoxMerge" {
			ws = And(a, b, GeConst("x", q("0")), GeConst("x - 1", q("0"))).Canon().cs
		}
		if !equalAtoms(got.cs, ws) {
			t.Errorf("%s: %v, want %v", name, got.cs, ws)
		}
	}
}

// must is the conjunction of BoxMerge when it is satisfiable.
func must(j Conjunction, sat bool) Conjunction {
	if !sat {
		return False()
	}
	return j
}
