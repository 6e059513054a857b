// Package rational implements exact rational arithmetic for the CQA/CDB
// constraint engine.
//
// CQA/CDB is a rational linear constraint database: every coefficient,
// constant, and coordinate in the constraint layer is an exact rational
// number. Floating point is unacceptable there because constraint
// satisfiability, entailment, and Fourier-Motzkin elimination all depend on
// exact sign tests; a single rounding error flips a satisfiable conjunction
// into an unsatisfiable one (or vice versa) and silently corrupts query
// results.
//
// Rat is an immutable value type. The common case — small numerators and
// denominators — is stored inline as a pair of int64s and never allocates.
// When an operation would overflow int64, the result is transparently
// promoted to a math/big.Rat; results that fit back into int64s are demoted
// again, so long pipelines of operations stay on the fast path whenever the
// values allow it.
package rational

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"strings"
)

// Rat is an exact rational number. The zero value is 0.
//
// Invariants (maintained by all constructors and operations):
//   - if b == nil: den > 0, gcd(|num|, den) == 1, and num == 0 implies den == 1
//     (except the zero value, which has num == 0, den == 0 and is treated as 0)
//   - if b != nil: b is in lowest terms and is never mutated after creation.
type Rat struct {
	num int64
	den int64 // 0 means "zero value" and is read as 1
	b   *big.Rat
}

// Common constants.
var (
	Zero = FromInt(0)
	One  = FromInt(1)
	Two  = FromInt(2)
	Half = New(1, 2)
)

// FromInt returns the rational n/1.
func FromInt(n int64) Rat { return Rat{num: n, den: 1} }

// New returns the rational num/den in lowest terms. It panics if den == 0.
func New(num, den int64) Rat {
	if den == 0 {
		panic("rational: zero denominator")
	}
	// MinInt64 has no int64 negation or magnitude; promote those cases (the
	// result demotes again when the reduced value fits).
	if num == math.MinInt64 || den == math.MinInt64 {
		return fromBig(new(big.Rat).SetFrac(big.NewInt(num), big.NewInt(den)))
	}
	if den < 0 {
		num, den = -num, -den
	}
	if num == 0 {
		return Rat{num: 0, den: 1}
	}
	if g := gcd64(abs64(num), den); g > 1 {
		num /= g
		den /= g
	}
	return Rat{num: num, den: den}
}

// FromBig returns a Rat equal to b. The argument is copied.
func FromBig(b *big.Rat) Rat {
	return fromBig(new(big.Rat).Set(b))
}

// fromBig wraps b, demoting to the inline representation when it fits.
// Callers must not retain or mutate b afterwards.
func fromBig(b *big.Rat) Rat {
	if b.Num().IsInt64() && b.Denom().IsInt64() {
		return Rat{num: b.Num().Int64(), den: b.Denom().Int64()}
	}
	return Rat{b: b}
}

// Parse parses a rational from a string. Accepted forms are integers
// ("42", "-7"), fractions ("3/4", "-22/7"), and decimals ("2.5", "-0.125").
func Parse(s string) (Rat, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Rat{}, fmt.Errorf("rational: empty string")
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		numStr, denStr := s[:i], s[i+1:]
		num, ok1 := new(big.Int).SetString(numStr, 10)
		den, ok2 := new(big.Int).SetString(denStr, 10)
		if !ok1 || !ok2 {
			return Rat{}, fmt.Errorf("rational: cannot parse %q", s)
		}
		if den.Sign() == 0 {
			return Rat{}, fmt.Errorf("rational: zero denominator in %q", s)
		}
		return fromBig(new(big.Rat).SetFrac(num, den)), nil
	}
	b, ok := new(big.Rat).SetString(s)
	if !ok {
		return Rat{}, fmt.Errorf("rational: cannot parse %q", s)
	}
	return fromBig(b), nil
}

// MustParse is like Parse but panics on error. Intended for constants and tests.
func MustParse(s string) Rat {
	r, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return r
}

// big returns the receiver as a big.Rat. The result must not be mutated
// when it aliases the receiver's internal value.
func (r Rat) bigVal() *big.Rat {
	if r.b != nil {
		return r.b
	}
	return new(big.Rat).SetFrac64(r.num, r.normDen())
}

func (r Rat) normDen() int64 {
	if r.den == 0 {
		return 1
	}
	return r.den
}

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool {
	if r.b != nil {
		return r.b.Sign() == 0
	}
	return r.num == 0
}

// Sign returns -1, 0, or +1 according to the sign of r.
func (r Rat) Sign() int {
	if r.b != nil {
		return r.b.Sign()
	}
	switch {
	case r.num > 0:
		return 1
	case r.num < 0:
		return -1
	default:
		return 0
	}
}

// Num returns the numerator of r as a new big.Int.
func (r Rat) Num() *big.Int {
	if r.b != nil {
		return new(big.Int).Set(r.b.Num())
	}
	return big.NewInt(r.num)
}

// Denom returns the denominator of r (always positive) as a new big.Int.
func (r Rat) Denom() *big.Int {
	if r.b != nil {
		return new(big.Int).Set(r.b.Denom())
	}
	return big.NewInt(r.normDen())
}

// Int64 returns the value of r as an int64, and whether the conversion is
// exact (r is an integer that fits in int64).
func (r Rat) Int64() (int64, bool) {
	if r.b != nil {
		if !r.b.IsInt() || !r.b.Num().IsInt64() {
			return 0, false
		}
		return r.b.Num().Int64(), true
	}
	if r.normDen() != 1 {
		return 0, false
	}
	return r.num, true
}

// Inline returns r's numerator and (positive) denominator when r is held
// inline as two int64s — every value that fits is — and ok=false for a
// promoted value (use Num and Denom there). It allocates nothing: it is how
// a binary encoder reads a Rat without going through math/big.
func (r Rat) Inline() (num, den int64, ok bool) {
	if r.b != nil {
		return 0, 0, false
	}
	return r.num, r.normDen(), true
}

// Float64 returns the nearest float64 value to r (ties to even), and
// whether it equals r, as math/big's Rat.Float64 does. When |num| and den
// both fit in 53 bits they convert exactly and one IEEE division rounds
// the quotient correctly; past that a conversion would round first, so the
// value goes through math/big.
func (r Rat) Float64() (f float64, exact bool) {
	const exactInt = 1 << 53 // every integer of magnitude ≤ 2^53 is a float64
	num, den := r.num, r.normDen()
	if r.b != nil || num < -exactInt || num > exactInt || den > exactInt {
		return r.bigVal().Float64()
	}
	// In lowest terms num/den is a dyadic rational exactly when den is a
	// power of two, and with den ≤ 2^53 it is then a float64.
	return float64(num) / float64(den), den&(den-1) == 0
}

// Neg returns -r.
func (r Rat) Neg() Rat {
	if r.b != nil {
		return fromBig(new(big.Rat).Neg(r.b))
	}
	if r.num == math.MinInt64 {
		return fromBig(new(big.Rat).Neg(r.bigVal()))
	}
	return Rat{num: -r.num, den: r.den}
}

// Abs returns |r|.
func (r Rat) Abs() Rat {
	if r.Sign() >= 0 {
		return r
	}
	return r.Neg()
}

// Inv returns 1/r. It panics if r == 0.
func (r Rat) Inv() Rat {
	if r.IsZero() {
		panic("rational: division by zero")
	}
	if r.b != nil {
		return fromBig(new(big.Rat).Inv(r.b))
	}
	if r.num == math.MinInt64 {
		return fromBig(new(big.Rat).Inv(r.bigVal()))
	}
	if r.num < 0 {
		return Rat{num: -r.normDen(), den: -r.num}
	}
	return Rat{num: r.normDen(), den: r.num}
}

// The inline paths below produce a lowest-terms result directly; whenever
// an intermediate would leave int64, or a MinInt64 numerator would have to
// be negated or made absolute, they give up and the math/big path (which
// demotes a result that fits) takes over. Either way the representation of
// a value is unique, so Hash, Equal and String agree.

// Add returns r + s.
func (r Rat) Add(s Rat) Rat {
	if r.b == nil && s.b == nil && r.num != math.MinInt64 && s.num != math.MinInt64 {
		if t, ok := addInline(r.num, r.normDen(), s.num, s.normDen()); ok {
			return t
		}
	}
	return fromBig(new(big.Rat).Add(r.bigVal(), s.bigVal()))
}

// Sub returns r - s.
func (r Rat) Sub(s Rat) Rat {
	if r.b == nil && s.b == nil && r.num != math.MinInt64 && s.num != math.MinInt64 {
		if t, ok := addInline(r.num, r.normDen(), -s.num, s.normDen()); ok {
			return t
		}
	}
	return fromBig(new(big.Rat).Sub(r.bigVal(), s.bigVal()))
}

// addInline returns u/ud + v/vd for lowest-terms operands (ud, vd > 0,
// neither numerator MinInt64), or ok=false when it cannot stay inline.
// It is Knuth's addition (TAOCP 4.5.1): with d1 = gcd(ud, vd), the sum over
// the least common denominator can only share a factor with d1 — none at
// all when the denominators are coprime.
func addInline(u, ud, v, vd int64) (Rat, bool) {
	if ud == vd {
		// Integers, or one shared denominator: add the numerators.
		n, ok := add64(u, v)
		if !ok {
			return Rat{}, false
		}
		if ud == 1 {
			return Rat{num: n, den: 1}, true
		}
		return New(n, ud), true // New promotes a MinInt64 numerator itself
	}
	// From here the denominators differ, so the sum is not zero: lowest-terms
	// operands that cancel have the same denominator.
	d1 := gcd64(ud, vd)
	if d1 == 1 {
		a, ok1 := mul64(u, vd)
		b, ok2 := mul64(v, ud)
		d, ok3 := mul64(ud, vd)
		if !ok1 || !ok2 || !ok3 {
			return Rat{}, false
		}
		n, ok := add64(a, b)
		if !ok {
			return Rat{}, false
		}
		return Rat{num: n, den: d}, true
	}
	a, ok1 := mul64(u, vd/d1)
	b, ok2 := mul64(v, ud/d1)
	if !ok1 || !ok2 {
		return Rat{}, false
	}
	t, ok := add64(a, b)
	if !ok || t == math.MinInt64 {
		return Rat{}, false
	}
	d2 := gcd64(abs64(t), d1)
	d, ok := mul64(ud/d1, vd/d2)
	if !ok {
		return Rat{}, false
	}
	return Rat{num: t / d2, den: d}, true
}

// Mul returns r * s.
func (r Rat) Mul(s Rat) Rat {
	if r.b == nil && s.b == nil && r.num != math.MinInt64 && s.num != math.MinInt64 {
		if r.num == 0 || s.num == 0 {
			return Rat{num: 0, den: 1}
		}
		rd, sd := r.normDen(), s.normDen()
		if rd == 1 && sd == 1 {
			if n, ok := mul64(r.num, s.num); ok {
				return Rat{num: n, den: 1}
			}
		} else {
			// Cross-reduce; the factors left are pairwise coprime, so their
			// products are already in lowest terms.
			rn, sd2 := crossReduce(r.num, sd)
			sn, rd2 := crossReduce(s.num, rd)
			n, ok1 := mul64(rn, sn)
			d, ok2 := mul64(rd2, sd2)
			if ok1 && ok2 {
				return Rat{num: n, den: d}
			}
		}
	}
	return fromBig(new(big.Rat).Mul(r.bigVal(), s.bigVal()))
}

// Div returns r / s. It panics if s == 0.
func (r Rat) Div(s Rat) Rat { return r.Mul(s.Inv()) }

// Cmp compares r and s and returns -1, 0, or +1.
func (r Rat) Cmp(s Rat) int {
	if r.b == nil && s.b == nil {
		// r.num/rd ? s.num/sd  <=>  r.num*sd ? s.num*rd  (denominators positive)
		a, ok1 := mul64(r.num, s.normDen())
		b, ok2 := mul64(s.num, r.normDen())
		if ok1 && ok2 {
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		}
	}
	return r.bigVal().Cmp(s.bigVal())
}

// Equal reports whether r == s.
func (r Rat) Equal(s Rat) bool { return r.Cmp(s) == 0 }

// Less reports whether r < s.
func (r Rat) Less(s Rat) bool { return r.Cmp(s) < 0 }

// LessEq reports whether r <= s.
func (r Rat) LessEq(s Rat) bool { return r.Cmp(s) <= 0 }

// Min returns the smaller of r and s.
func Min(r, s Rat) Rat {
	if r.Cmp(s) <= 0 {
		return r
	}
	return s
}

// Max returns the larger of r and s.
func Max(r, s Rat) Rat {
	if r.Cmp(s) >= 0 {
		return r
	}
	return s
}

// String renders r as an integer ("5") or fraction ("5/3").
func (r Rat) String() string {
	var buf [48]byte
	return string(r.AppendTo(buf[:0]))
}

// AppendTo appends the String rendering of r to b and returns the extended
// slice. It is the renderer everything above builds on (expressions,
// constraints, tuples): integers are formatted by strconv straight into the
// caller's buffer, so rendering an inline value allocates nothing.
func (r Rat) AppendTo(b []byte) []byte {
	if r.b != nil {
		b = r.b.Num().Append(b, 10)
		if !r.b.IsInt() {
			b = append(b, '/')
			b = r.b.Denom().Append(b, 10)
		}
		return b
	}
	b = strconv.AppendInt(b, r.num, 10)
	if r.den > 1 {
		b = append(b, '/')
		b = strconv.AppendInt(b, r.den, 10)
	}
	return b
}

// Key returns a canonical comparable key for r, suitable for use as a map
// key. Two Rats have the same Key iff they are numerically equal.
func (r Rat) Key() string { return r.String() }

// Hash folds r into the running 64-bit hash h and returns the new state.
// Numerically equal Rats fold identically (the representation is unique:
// lowest terms, and big only when int64 cannot hold the value). Numerator
// and denominator are mixed in as integers — inline values as two words,
// promoted values by the words of their magnitudes — so no string is built.
// The value is for in-memory hashing only and may change between versions.
func (r Rat) Hash(h uint64) uint64 {
	if r.b != nil {
		h = mix(h, uint64(r.b.Sign()+1))
		for _, w := range r.b.Num().Bits() {
			h = mix(h, uint64(w))
		}
		h = mix(h, 1<<63) // numerator/denominator boundary
		for _, w := range r.b.Denom().Bits() {
			h = mix(h, uint64(w))
		}
		return h
	}
	return mix(mix(h, uint64(r.num)), uint64(r.normDen()))
}

// mix is one FNV-1a-style step over a whole word, followed by an xor-shift
// so the word's high bits reach the low bits of the state (FNV's multiply
// alone only carries upwards). Both halves are bijections of h.
func mix(h, x uint64) uint64 {
	h = (h ^ x) * 1099511628211
	return h ^ h>>29
}

// --- low-level helpers ---

// abs64 returns |x|; x must not be MinInt64.
func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// gcd64 returns gcd(a, b). Contract: a >= 0 and b > 0 — callers pass a
// positive denominator and the magnitude of a numerator that is not
// MinInt64 — so the result is in [1, b] and fits.
//
// Euclid by division, with the early outs the kernel's operands mostly
// take (an integer on either side) and the remainder loop continued in 32
// bits as soon as both operands fit: a 32-bit division costs a fraction of
// a 64-bit one. The binary (shift-and-subtract) algorithm measured slower
// than this on the clipping workload (BenchmarkDifferencePolygonMinus).
func gcd64(a, b int64) int64 {
	if a == 0 {
		return b
	}
	if a == 1 || b == 1 {
		return 1
	}
	ua, ub := uint64(a), uint64(b)
	for ub != 0 {
		if ua|ub < 1<<32 {
			x, y := uint32(ua), uint32(ub)
			for y != 0 {
				x, y = y, x%y
			}
			return int64(x)
		}
		ua, ub = ub, ua%ub
	}
	return int64(ua)
}

// crossReduce divides a and b by gcd(|a|, b). Contract: a is neither 0 nor
// MinInt64, b > 0.
func crossReduce(a, b int64) (int64, int64) {
	if g := gcd64(abs64(a), b); g > 1 {
		return a / g, b / g
	}
	return a, b
}

// add64 returns a+b and whether it did not overflow.
func add64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// mul64 returns a*b and whether it did not overflow. Two factors in int32
// range cannot overflow; otherwise the 128-bit product of the magnitudes
// decides (the magnitude of MinInt64 is representable as a uint64).
func mul64(a, b int64) (int64, bool) {
	if int64(int32(a)) == a && int64(int32(b)) == b {
		return a * b, true
	}
	ua, ub := uint64(a), uint64(b)
	if a < 0 {
		ua = -ua
	}
	if b < 0 {
		ub = -ub
	}
	hi, lo := bits.Mul64(ua, ub)
	if hi != 0 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		if lo > 1<<63 {
			return 0, false
		}
		return -int64(lo), true
	}
	if lo > math.MaxInt64 {
		return 0, false
	}
	return int64(lo), true
}
