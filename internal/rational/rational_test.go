package rational

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestNewNormalisation(t *testing.T) {
	tests := []struct {
		num, den int64
		want     string
	}{
		{1, 2, "1/2"},
		{2, 4, "1/2"},
		{-2, 4, "-1/2"},
		{2, -4, "-1/2"},
		{-2, -4, "1/2"},
		{0, 5, "0"},
		{7, 1, "7"},
		{-7, 1, "-7"},
		{6, 3, "2"},
	}
	for _, tt := range tests {
		if got := New(tt.num, tt.den).String(); got != tt.want {
			t.Errorf("New(%d,%d) = %s, want %s", tt.num, tt.den, got, tt.want)
		}
	}
}

func TestNewPanicsOnZeroDen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1,0) did not panic")
		}
	}()
	New(1, 0)
}

func TestZeroValue(t *testing.T) {
	var r Rat
	if !r.IsZero() {
		t.Error("zero value is not zero")
	}
	if got := r.Add(One).String(); got != "1" {
		t.Errorf("0+1 = %s", got)
	}
	if got := r.Mul(Two).String(); got != "0" {
		t.Errorf("0*2 = %s", got)
	}
	if r.Sign() != 0 {
		t.Errorf("Sign() = %d", r.Sign())
	}
	if !r.Equal(Zero) {
		t.Error("zero value != Zero")
	}
}

func TestParse(t *testing.T) {
	tests := []struct {
		in   string
		want string
		err  bool
	}{
		{"42", "42", false},
		{"-7", "-7", false},
		{"3/4", "3/4", false},
		{"-22/7", "-22/7", false},
		{"2.5", "5/2", false},
		{"-0.125", "-1/8", false},
		{" 1/2 ", "1/2", false},
		{"4/2", "2", false},
		{"", "", true},
		{"abc", "", true},
		{"1/0", "", true},
		{"1//2", "", true},
	}
	for _, tt := range tests {
		r, err := Parse(tt.in)
		if tt.err {
			if err == nil {
				t.Errorf("Parse(%q): expected error, got %s", tt.in, r)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.in, err)
			continue
		}
		if r.String() != tt.want {
			t.Errorf("Parse(%q) = %s, want %s", tt.in, r, tt.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	a := New(1, 2)
	b := New(1, 3)
	if got := a.Add(b).String(); got != "5/6" {
		t.Errorf("1/2+1/3 = %s", got)
	}
	if got := a.Sub(b).String(); got != "1/6" {
		t.Errorf("1/2-1/3 = %s", got)
	}
	if got := a.Mul(b).String(); got != "1/6" {
		t.Errorf("1/2*1/3 = %s", got)
	}
	if got := a.Div(b).String(); got != "3/2" {
		t.Errorf("(1/2)/(1/3) = %s", got)
	}
	if got := a.Neg().String(); got != "-1/2" {
		t.Errorf("-(1/2) = %s", got)
	}
	if got := New(-3, 4).Abs().String(); got != "3/4" {
		t.Errorf("|-3/4| = %s", got)
	}
	if got := New(-3, 4).Inv().String(); got != "-4/3" {
		t.Errorf("1/(-3/4) = %s", got)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	One.Div(Zero)
}

func TestCmp(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"1/2", "1/3", 1},
		{"1/3", "1/2", -1},
		{"2/4", "1/2", 0},
		{"-1/2", "1/2", -1},
		{"-1/2", "-1/3", -1},
		{"0", "0", 0},
	}
	for _, tt := range tests {
		a, b := MustParse(tt.a), MustParse(tt.b)
		if got := a.Cmp(b); got != tt.want {
			t.Errorf("Cmp(%s,%s) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
	if !MustParse("1/3").Less(MustParse("1/2")) {
		t.Error("1/3 < 1/2 failed")
	}
	if !MustParse("1/2").LessEq(MustParse("1/2")) {
		t.Error("1/2 <= 1/2 failed")
	}
}

func TestMinMax(t *testing.T) {
	a, b := New(1, 3), New(1, 2)
	if !Min(a, b).Equal(a) || !Min(b, a).Equal(a) {
		t.Error("Min wrong")
	}
	if !Max(a, b).Equal(b) || !Max(b, a).Equal(b) {
		t.Error("Max wrong")
	}
}

func TestOverflowPromotion(t *testing.T) {
	big1 := FromInt(math.MaxInt64)
	sum := big1.Add(big1) // overflows int64
	want := new(big.Rat).SetInt64(math.MaxInt64)
	want.Add(want, want)
	if sum.bigVal().Cmp(want) != 0 {
		t.Errorf("MaxInt64+MaxInt64 = %s, want %s", sum, want.RatString())
	}
	// Round trip through subtraction should demote back to the fast path.
	back := sum.Sub(big1)
	if back.b != nil {
		t.Error("result fitting int64 was not demoted")
	}
	if !back.Equal(big1) {
		t.Errorf("(a+a)-a = %s, want %s", back, big1)
	}

	prod := big1.Mul(big1)
	wantP := new(big.Rat).SetInt64(math.MaxInt64)
	wantP.Mul(wantP, wantP)
	if prod.bigVal().Cmp(wantP) != 0 {
		t.Errorf("MaxInt64^2 = %s", prod)
	}
	if prod.Cmp(big1) <= 0 {
		t.Error("MaxInt64^2 <= MaxInt64")
	}
}

func TestMinInt64Edges(t *testing.T) {
	m := FromInt(math.MinInt64)
	if got := m.Neg(); got.Sign() <= 0 {
		t.Errorf("-MinInt64 sign = %d", got.Sign())
	}
	if got := m.Abs(); got.Sign() <= 0 {
		t.Errorf("|MinInt64| sign = %d", got.Sign())
	}
	inv := m.Inv()
	if !inv.Mul(m).Equal(One) {
		t.Errorf("MinInt64 * 1/MinInt64 = %s", inv.Mul(m))
	}
	r := New(math.MinInt64, 2)
	want := new(big.Rat).SetFrac64(math.MinInt64, 2)
	if r.bigVal().Cmp(want) != 0 {
		t.Errorf("New(MinInt64,2) = %s, want %s", r, want.RatString())
	}
	neg := New(5, math.MinInt64)
	wantN := new(big.Rat).SetFrac64(5, math.MinInt64)
	if neg.bigVal().Cmp(wantN) != 0 {
		t.Errorf("New(5,MinInt64) = %s, want %s", neg, wantN.RatString())
	}
}

func TestIntConversions(t *testing.T) {
	if v, ok := FromInt(42).Int64(); !ok || v != 42 {
		t.Errorf("Int64(42) = %d,%v", v, ok)
	}
	if _, ok := New(1, 2).Int64(); ok {
		t.Error("Int64(1/2) reported exact")
	}
	if f, exact := New(1, 2).Float64(); f != 0.5 || !exact {
		t.Errorf("Float64(1/2) = %g, %v", f, exact)
	}
}

// TestFloat64Nearest: Float64 is the nearest float64, and exact says
// whether it equals the value, as math/big's Rat.Float64 has them — at
// the int64 edge, where a numerator or denominator past 2^53 would round
// once on conversion and again in the division, at 2^53 itself, on dyadic
// and non-dyadic values, and on promoted ones.
func TestFloat64Nearest(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	for _, c := range [][2]int64{
		{110194328106169817, 29062511108676235}, // rounded twice by float64(num)/float64(den)
		{1, 3}, {-2, 3}, {1, 1 << 52}, {3, 1 << 53}, {1 << 53, 1}, {1<<53 + 1, 1}, {-(1<<53 + 1), 3},
		{1<<53 - 1, 1<<53 - 3}, {1, 1<<53 + 1}, {1<<53 + 1, 1<<53 + 3}, {hi, 1}, {lo, 1}, {1, hi}, {-1, hi},
		{hi, hi - 1}, {lo + 1, hi}, {hi, 1 << 62}, {lo, 3}, {hi - 2, 7}, {1<<62 + 1, 1<<61 + 1}, {0, 1},
	} {
		want := new(big.Rat).SetFrac(big.NewInt(c[0]), big.NewInt(c[1]))
		checkFloat64(t, New(c[0], c[1]), want)
		checkFloat64(t, FromBig(new(big.Rat).Mul(want, big.NewRat(1<<40, 3))), new(big.Rat).Mul(want, big.NewRat(1<<40, 3)))
	}
}

// checkFloat64 fails t unless r.Float64 is math/big's for want.
func checkFloat64(t *testing.T, r Rat, want *big.Rat) {
	t.Helper()
	wf, wexact := want.Float64()
	if f, exact := r.Float64(); f != wf || exact != wexact {
		t.Fatalf("Float64(%s) = %v (exact %v), math/big: %v (exact %v)", r, f, exact, wf, wexact)
	}
}

func TestFromBigCopies(t *testing.T) {
	b := new(big.Rat).SetFrac64(1, 3)
	r := FromBig(b)
	b.SetFrac64(9, 1) // mutate the original
	if !r.Equal(New(1, 3)) {
		t.Errorf("FromBig aliased its argument: %s", r)
	}
}

func TestKeyCanonical(t *testing.T) {
	if New(2, 4).Key() != New(1, 2).Key() {
		t.Error("equal rationals have different keys")
	}
	if New(1, 2).Key() == New(1, 3).Key() {
		t.Error("distinct rationals share a key")
	}
}

// refString is the rendering contract stated with math/big alone: an
// integer prints bare, anything else as num/den in lowest terms.
func refString(b *big.Rat) string {
	if b.IsInt() {
		return b.Num().String()
	}
	return b.String()
}

// edgeRats are the values where a hand-written integer formatter goes wrong:
// MinInt64 (no int64 negation), negative fractions, denominator 1, the zero
// value, and values promoted to big.Rat on either side of the fraction bar.
func edgeRats() []Rat {
	maxI := FromInt(math.MaxInt64)
	huge := maxI.Mul(maxI)
	return []Rat{
		{}, Zero, One, FromInt(-1), FromInt(5), New(10, 2), New(0, 7),
		New(-3, 4), New(3, -4), New(-22, 7), New(1, math.MaxInt64), New(-1, math.MaxInt64),
		FromInt(math.MinInt64), New(math.MinInt64, 3), New(math.MinInt64, 2), New(5, math.MinInt64),
		FromInt(math.MinInt64).Neg(), FromInt(math.MinInt64).Inv(),
		maxI, maxI.Add(One), huge, huge.Neg(), huge.Inv(), huge.Neg().Inv(), huge.Add(Half), huge.Sub(huge),
	}
}

func TestStringMatchesBigRat(t *testing.T) {
	check := func(r Rat) bool {
		want := refString(r.bigVal())
		if got := r.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
			return false
		}
		if got := string(r.AppendTo([]byte("x="))); got != "x="+want {
			t.Errorf("AppendTo = %q, want %q", got, "x="+want)
			return false
		}
		return r.Key() == want
	}
	for _, r := range edgeRats() {
		check(r)
	}
	f := func(an, ad, bn, bd int64) bool {
		if ad == 0 || bd == 0 {
			return true
		}
		a, b := New(an, ad), New(bn, bd)
		return check(a) && check(b) && check(a.Mul(b)) && check(a.Add(b)) // products promote
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHashFollowsEquality: numerically equal values hash alike however they
// were built (reduced, demoted from big, the zero value), and the spot-check
// neighbours that a sloppy mixer would confuse do not.
func TestHashFollowsEquality(t *testing.T) {
	const seed = 14695981039346656037
	maxI := FromInt(math.MaxInt64)
	huge := maxI.Mul(maxI)
	same := [][2]Rat{
		{New(2, 4), New(1, 2)},
		{Rat{}, Zero},
		{New(3, -4), New(-3, 4)},
		{huge.Sub(huge).Add(FromInt(7)), FromInt(7)}, // big arithmetic demoted
		{huge, maxI.Mul(maxI)},
		{huge.Inv().Neg(), huge.Neg().Inv()},
		{FromBig(new(big.Rat).SetFrac64(6, 8)), New(3, 4)},
	}
	for _, p := range same {
		if !p[0].Equal(p[1]) {
			t.Fatalf("bad fixture: %s != %s", p[0], p[1])
		}
		if p[0].Hash(seed) != p[1].Hash(seed) {
			t.Errorf("equal values %s hash differently", p[0])
		}
	}
	seen := map[uint64]Rat{}
	for _, r := range edgeRats() {
		h := r.Hash(seed)
		if prev, ok := seen[h]; ok && !prev.Equal(r) {
			t.Errorf("%s and %s share a hash", prev, r)
		}
		seen[h] = r
	}
	for _, p := range [][2]Rat{{New(1, 2), New(2, 1)}, {One, FromInt(-1)}, {huge, huge.Neg()}, {huge, huge.Inv()}} {
		if p[0].Hash(seed) == p[1].Hash(seed) {
			t.Errorf("%s and %s share a hash", p[0], p[1])
		}
	}
	if One.Hash(1) == One.Hash(2) {
		t.Error("Hash ignores the running state")
	}
}

// refOp applies the reference big.Rat implementation.
func refBin(op string, a, b *big.Rat) *big.Rat {
	out := new(big.Rat)
	switch op {
	case "add":
		return out.Add(a, b)
	case "sub":
		return out.Sub(a, b)
	case "mul":
		return out.Mul(a, b)
	default:
		panic(op)
	}
}

// TestQuickAgainstBigRat property-tests all binary operations against
// math/big as the reference implementation.
func TestQuickAgainstBigRat(t *testing.T) {
	for _, op := range []string{"add", "sub", "mul"} {
		op := op
		f := func(an, ad, bn, bd int64) bool {
			if ad == 0 {
				ad = 1
			}
			if bd == 0 {
				bd = 1
			}
			a, b := New(an, ad), New(bn, bd)
			var got Rat
			switch op {
			case "add":
				got = a.Add(b)
			case "sub":
				got = a.Sub(b)
			case "mul":
				got = a.Mul(b)
			}
			ref := refBin(op, new(big.Rat).SetFrac64(an, ad), new(big.Rat).SetFrac64(bn, bd))
			return got.bigVal().Cmp(ref) == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s disagrees with big.Rat: %v", op, err)
		}
	}
}

func TestQuickCmpAgainstBigRat(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		if ad == 0 {
			ad = 1
		}
		if bd == 0 {
			bd = 1
		}
		a, b := New(an, ad), New(bn, bd)
		ref := new(big.Rat).SetFrac64(an, ad).Cmp(new(big.Rat).SetFrac64(bn, bd))
		return a.Cmp(b) == ref
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickFieldAxioms(t *testing.T) {
	// (a+b)+c == a+(b+c); a*(b+c) == a*b + a*c; a + (-a) == 0; a * 1/a == 1.
	f := func(an, bn, cn int64, ad, bd, cd int64) bool {
		if ad == 0 {
			ad = 1
		}
		if bd == 0 {
			bd = 1
		}
		if cd == 0 {
			cd = 1
		}
		a, b, c := New(an, ad), New(bn, bd), New(cn, cd)
		if !a.Add(b).Add(c).Equal(a.Add(b.Add(c))) {
			return false
		}
		if !a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c))) {
			return false
		}
		if !a.Add(a.Neg()).IsZero() {
			return false
		}
		if !a.IsZero() && !a.Mul(a.Inv()).Equal(One) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickParseRoundTrip(t *testing.T) {
	f := func(n, d int64) bool {
		if d == 0 {
			d = 1
		}
		r := New(n, d)
		back, err := Parse(r.String())
		return err == nil && back.Equal(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddSmall(b *testing.B) {
	x, y := New(355, 113), New(22, 7)
	for i := 0; i < b.N; i++ {
		_ = x.Add(y)
	}
}

func BenchmarkMulSmall(b *testing.B) {
	x, y := New(355, 113), New(22, 7)
	for i := 0; i < b.N; i++ {
		_ = x.Mul(y)
	}
}

func BenchmarkCmpSmall(b *testing.B) {
	x, y := New(355, 113), New(22, 7)
	for i := 0; i < b.N; i++ {
		_ = x.Cmp(y)
	}
}

// BenchmarkRatString is the renderer under everything printed, saved or
// sorted for display; inline values must not allocate beyond the result.
func BenchmarkRatString(b *testing.B) {
	xs := []Rat{FromInt(7), FromInt(-1234567), New(355, 113), New(-22, 7)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = xs[i%len(xs)].String()
	}
}
