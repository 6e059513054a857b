package constraint_test

import (
	"math/rand"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/datagen"
	"cdb/internal/rational"
)

// checkInsert fails unless inserting c into the canonical j gives exactly
// j.With(c).Canon(): a conjunction flagged canonical with the same atoms in
// the same order, the same fingerprint, and EqualCanonical. It returns the
// inserted form, so a caller can chain inserts as the staircase does.
func checkInsert(t *testing.T, name string, j constraint.Conjunction, c constraint.Constraint) constraint.Conjunction {
	t.Helper()
	got, want := constraint.InsertCanon(j, c), j.With(c).Canon()
	if !got.IsCanonical() {
		t.Fatalf("%s: inserting %s into %s gives %s, not flagged canonical", name, c, j, got)
	}
	ga, wa := got.Constraints(), want.Constraints()
	same := len(ga) == len(wa)
	for i := 0; same && i < len(ga); i++ {
		same = ga[i].Op == wa[i].Op && ga[i].Expr.Equal(wa[i].Expr)
	}
	if !same || got.Fingerprint() != want.Fingerprint() || !got.EqualCanonical(want) {
		t.Fatalf("%s: inserting %s into %s gives %s (fingerprint %x), With+Canon gives %s (%x)",
			name, c, j, got, got.Fingerprint(), want, want.Fingerprint())
	}
	return got
}

// TestInsertIsWithCanon: on datagen.RandomConjunction draws, inserting the
// atoms of a second draw one at a time — and atoms built to meet the
// conjunction's own: a copy, a positive rescaling, the other strictness,
// a nudged bound — always gives With(c).Canon().
func TestInsertIsWithCanon(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vars := []string{"x", "y", "z"}
	folded := 0
	for i := 0; i < 600; i++ {
		j := datagen.RandomConjunction(rng, vars).Canon()
		var atoms []constraint.Constraint
		atoms = append(atoms, datagen.RandomConjunction(rng, vars).Constraints()...)
		if cs := j.Constraints(); len(cs) > 0 && !j.IsFalse() {
			a := cs[rng.Intn(len(cs))]
			other := constraint.Lt
			if a.Op == constraint.Lt {
				other = constraint.Le
			}
			atoms = append(atoms,
				a,
				constraint.Constraint{Expr: a.Expr.Scale(rational.New(1+rng.Int63n(5), 1+rng.Int63n(3))), Op: a.Op},
				constraint.Constraint{Expr: a.Expr, Op: other},
				constraint.Constraint{Expr: a.Expr.AddConst(rational.FromInt(rng.Int63n(3) - 1)), Op: a.Op},
			)
		}
		rng.Shuffle(len(atoms), func(a, b int) { atoms[a], atoms[b] = atoms[b], atoms[a] })
		for _, c := range atoms {
			before := j.Len()
			j = checkInsert(t, "draw "+itoa(i), j, c)
			if j.Len() <= before {
				folded++
			}
		}
	}
	if folded < 300 {
		t.Fatalf("fixture too thin: %d inserts folded or dropped their atom", folded)
	}
}

// TestInsertHandCases pins the insert's rules one at a time.
func TestInsertHandCases(t *testing.T) {
	x, y := constraint.Var("x"), constraint.Var("y")
	q := func(n int64) rational.Rat { return rational.FromInt(n) }
	le3 := constraint.And(constraint.LeConst("x", q(3)), constraint.GeConst("y", q(0))).Canon()
	lt3 := constraint.And(constraint.LtConst("x", q(3)), constraint.GeConst("y", q(0))).Canon()
	eq := constraint.And(constraint.EqConst("x", q(2)), constraint.LeConst("y", q(1))).Canon()
	for _, c := range []struct {
		name string
		j    constraint.Conjunction
		c    constraint.Constraint
		want string
	}{
		{"Lt beats Le at an equal constant", le3, constraint.LtConst("x", q(3)), lt3.String()},
		{"Le loses to Lt at an equal constant", lt3, constraint.LeConst("x", q(3)), lt3.String()},
		{"dominated", le3, constraint.LeConst("x", q(5)), le3.String()},
		{"tighter replaces", le3, constraint.LeConst("x", q(1)), ""},
		{"duplicate equality, scaled", eq, constraint.MustNew(x.Scale(q(-2)), "=", constraint.ConstInt(-4)), eq.String()},
		{"non-unit-scaled half-plane", le3, constraint.MustNew(x.Scale(q(2)).Add(y.Scale(q(4))), "<=", constraint.ConstInt(6)), ""},
		{"trivially true", le3, constraint.MustNew(constraint.ConstInt(0), "<=", constraint.ConstInt(1)), le3.String()},
		{"trivially false", le3, constraint.MustNew(constraint.ConstInt(1), "<=", constraint.ConstInt(0)), constraint.False().String()},
		{"the False sentinel", constraint.False(), constraint.LeConst("x", q(1)), constraint.False().String()},
		{"into true", constraint.True(), constraint.MustNew(y.Scale(q(3)), "<", x.Scale(q(6))), ""},
	} {
		got := checkInsert(t, c.name, c.j, c.c)
		if c.want != "" && got.String() != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for ; n > 0; n /= 10 {
		b = append([]byte{byte('0' + n%10)}, b...)
	}
	return string(b)
}
