package rational

import (
	"math"
	"math/big"
	"testing"
)

// checkRep asserts the representation invariants Hash, Equal and String
// rest on: a value has exactly one representation — inline (den > 0,
// lowest terms, zero as 0/1) whenever numerator and denominator fit int64,
// promoted only otherwise — and it equals the math/big reference.
func checkRep(t *testing.T, what string, got Rat, want *big.Rat) {
	t.Helper()
	const seed = 14695981039346656037
	if got.b != nil {
		if got.b.Num().IsInt64() && got.b.Denom().IsInt64() {
			t.Fatalf("%s: %s is promoted but fits int64", what, got.b)
		}
	} else {
		if got.den <= 0 {
			t.Fatalf("%s: den = %d", what, got.den)
		}
		if got.num == 0 && got.den != 1 {
			t.Fatalf("%s: zero stored as 0/%d", what, got.den)
		}
		g := new(big.Int).GCD(nil, nil, new(big.Int).Abs(big.NewInt(got.num)), big.NewInt(got.den))
		if got.num != 0 && g.Cmp(big.NewInt(1)) != 0 {
			t.Fatalf("%s: %d/%d is not in lowest terms", what, got.num, got.den)
		}
	}
	if got.bigVal().Cmp(want) != 0 {
		t.Fatalf("%s = %s, want %s", what, got, want)
	}
	ref := FromBig(want)
	if !got.Equal(ref) || got.Hash(seed) != ref.Hash(seed) || got.String() != refString(want) {
		t.Fatalf("%s: Equal/Hash/String disagree with the demoted reference %s: got %s", what, refString(want), got)
	}
}

// scaled returns n/d · 2^shift exactly, with shift taken into [-70, 70]: a
// non-zero shift is how the fuzzer reaches promoted operands, and operands
// whose sums, differences and products demote again.
func scaled(n, d int64, shift int8) *big.Rat {
	if d == 0 {
		d = 1
	}
	v := new(big.Rat).SetFrac(big.NewInt(n), big.NewInt(d))
	p := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(abs64(int64(shift%71)))))
	if shift < 0 {
		return v.Quo(v, p)
	}
	return v.Mul(v, p)
}

// FuzzRatOps checks every arithmetic operation against math/big.Rat: the
// value, and the representation invariants of the result.
func FuzzRatOps(f *testing.F) {
	const lo, hi = math.MinInt64, math.MaxInt64
	for _, s := range [][4]int64{
		{lo, 1, lo, 1}, {lo, 1, hi, 1}, {hi, 1, hi, 1}, {lo, 1, -1, 1}, {lo, 3, 1, 3}, {lo, hi, hi, lo},
		{1, lo, 1, hi}, {lo, 2, lo, 2}, {-(1 << 62), 1, -(1 << 62), 1}, {1 << 62, 1, -2, 1}, {lo, 1, 1, 2},
		{1 << 31, 1, 1 << 31, 1}, {-(1 << 31), 1, 1 << 32, 1}, {1<<32 + 1, 1, 1<<32 - 1, 1}, {-(1<<32 + 1), 1<<32 - 1, 1<<32 - 1, 1<<32 + 1},
		{1 << 31, 1<<31 - 1, -(1 << 31), 1<<31 + 1}, {1, 1 << 32, 1, 1 << 32}, {1, 1 << 62, 1, 1 << 62},
		{3, 7, 4, 7}, {3, 7, -3, 7}, {5, 12, 7, 12}, {1, 6, 1, 10}, {1, 6, 1, 3}, {5, 6, 1, 6}, {2, 3, 3, 5}, {1, hi, 1, hi - 1},
		// Products and sums that land exactly on, or one past, the int64 edges
		// (2^63 + 1 = 3 · 3074457345618258603).
		{1 << 62, 1, 2, 1}, {1 << 32, 1, 1 << 31, 1}, {-(1 << 32), 1, 1 << 31, 1}, {-3, 1, 3074457345618258603, 1}, {3, 1, 3074457345618258603, 1},
		{1, 1, lo, 1}, {5, 3, lo, 3}, {1, 2, lo, 3}, {-3074457345618258603, 2, 1, 6}, {-(1 << 62), 3, -(1 << 62), 3},
		{0, 1, 0, 1}, {0, 5, 3, 4}, {7, 1, 0, 3}, {1, 1, -1, 1}, {6, 35, 35, 6}, {hi, 2, 2, hi}, {hi, 3, hi, 5},
	} {
		f.Add(s[0], s[1], s[2], s[3], int8(0), int8(0))
	}
	// Promoted operands, and pairs whose results demote.
	f.Add(int64(hi), int64(1), int64(1), int64(4), int8(2), int8(0))
	f.Add(int64(hi), int64(1), int64(hi), int64(1), int8(3), int8(3))
	f.Add(int64(lo), int64(1), int64(lo), int64(1), int8(1), int8(1))
	f.Add(int64(3), int64(1), int64(1), int64(3), int8(70), int8(-70))
	f.Add(int64(1), int64(hi), int64(5), int64(hi), int8(-9), int8(-9))
	f.Add(int64(lo), int64(1), int64(1), int64(1), int8(-1), int8(0))
	f.Fuzz(func(t *testing.T, an, ad, bn, bd int64, sa, sb int8) {
		ra, rb := scaled(an, ad, sa), scaled(bn, bd, sb)
		a, b := FromBig(ra), FromBig(rb)
		checkRep(t, "a", a, ra)
		checkRep(t, "b", b, rb)
		if sa == 0 && ad != 0 {
			checkRep(t, "New(a)", New(an, ad), ra)
		}
		if sb == 0 && bd != 0 {
			checkRep(t, "New(b)", New(bn, bd), rb)
		}
		checkRep(t, "a+b", a.Add(b), new(big.Rat).Add(ra, rb))
		checkRep(t, "a-b", a.Sub(b), new(big.Rat).Sub(ra, rb))
		checkRep(t, "a*b", a.Mul(b), new(big.Rat).Mul(ra, rb))
		checkRep(t, "-a", a.Neg(), new(big.Rat).Neg(ra))
		if rb.Sign() != 0 {
			checkRep(t, "a/b", a.Div(b), new(big.Rat).Quo(ra, rb))
			checkRep(t, "1/b", b.Inv(), new(big.Rat).Inv(rb))
		}
		if got, want := a.Cmp(b), ra.Cmp(rb); got != want {
			t.Fatalf("Cmp(%s, %s) = %d, want %d", a, b, got, want)
		}
	})
}
