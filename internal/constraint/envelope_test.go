package constraint

import (
	"testing"

	"cdb/internal/rational"
)

// TestEnvelopeDerivation pins how the envelope reads single-variable
// atoms, and what its propagation passes derive from multi-variable ones:
// closed bounds only, two passes and no more, and nothing at all without a
// single-variable atom to start from.
func TestEnvelopeDerivation(t *testing.T) {
	two, five := rational.FromInt(2), rational.FromInt(5)
	closed := func(lo, hi int64) func(iv Interval, ok bool) bool {
		return func(iv Interval, ok bool) bool {
			return ok && iv.HasLower && iv.HasUpper && !iv.LowerOpen && !iv.UpperOpen &&
				iv.Lower.Equal(rational.FromInt(lo)) && iv.Upper.Equal(rational.FromInt(hi))
		}
	}
	eq := func(a, b Expr) Constraint { return MustNew(a, "=", b) }
	// A track segment x = 2t + 1, y = 3 - t for t in [0, 5].
	segment := And(eq(Var("x"), Var("t").Scale(two).Add(ConstInt(1))), eq(Var("y"), ConstInt(3).Sub(Var("t"))),
		GeConst("t", rational.Zero), LeConst("t", five))
	// x = y and y = z, in the order the first pass cannot finish.
	chain := func(links ...string) Conjunction {
		var cs []Constraint
		for i := 0; i+1 < len(links); i++ {
			cs = append(cs, eq(Var(links[i]), Var(links[i+1])))
		}
		last := links[len(links)-1]
		return And(append(cs, GeConst(last, rational.Zero), LeConst(last, rational.One))...)
	}
	// x + y < 4 with x >= 1 and y >= 0: x <= 4 and y <= 3, both closed.
	strict := And(Constraint{Expr: Var("x").Add(Var("y")).Add(ConstInt(-4)), Op: Lt},
		GeConst("x", rational.One), GeConst("y", rational.Zero))
	multiOnly := And(Constraint{Expr: Var("x").Add(Var("y")).Add(ConstInt(-3)), Op: Le},
		Constraint{Expr: Var("x").Sub(Var("y")).Add(ConstInt(-1)), Op: Le})
	cases := []struct {
		name string
		j    Conjunction
		v    string
		want func(iv Interval, ok bool) bool
	}{
		{"two-sided", And(GeConst("x", two), LeConst("x", five)), "x",
			func(iv Interval, ok bool) bool {
				return ok && iv.HasLower && iv.HasUpper &&
					iv.Lower.Equal(two) && iv.Upper.Equal(five) &&
					!iv.LowerOpen && !iv.UpperOpen
			}},
		{"strict-upper", And(LtConst("x", five)), "x",
			func(iv Interval, ok bool) bool {
				return ok && !iv.HasLower && iv.HasUpper && iv.Upper.Equal(five) && iv.UpperOpen
			}},
		{"equality", And(EqConst("x", two)), "x",
			func(iv Interval, ok bool) bool {
				return ok && iv.IsPoint() && iv.Lower.Equal(two)
			}},
		{"unconstrained-var", And(GeConst("x", two)), "y",
			func(iv Interval, ok bool) bool { return !ok }},
		{"track-segment-x", segment, "x", closed(1, 11)},
		{"track-segment-y", segment, "y", closed(-2, 3)},
		{"track-segment-canonical", segment.Canon(), "x", closed(1, 11)},
		{"eq-chain-second-pass", chain("x", "y", "z"), "x", closed(0, 1)},
		{"eq-chain-first-pass", chain("x", "y", "z"), "y", closed(0, 1)},
		{"eq-chain-beyond-the-passes", chain("w", "x", "y", "z"), "w",
			func(iv Interval, ok bool) bool { return !ok }},
		{"strict-multi-var-x", strict, "x", func(iv Interval, ok bool) bool {
			return ok && iv.HasUpper && !iv.UpperOpen && iv.Upper.Equal(rational.FromInt(4))
		}},
		{"strict-multi-var-y", strict, "y", func(iv Interval, ok bool) bool {
			return ok && iv.HasUpper && !iv.UpperOpen && iv.Upper.Equal(rational.FromInt(3)) &&
				iv.HasLower && iv.Lower.IsZero()
		}},
		{"multi-var-only-x", multiOnly, "x", func(iv Interval, ok bool) bool { return !ok }},
		{"multi-var-only-y", multiOnly, "y", func(iv Interval, ok bool) bool { return !ok }},
	}
	for _, tc := range cases {
		iv, ok := tc.j.Envelope().Interval(tc.v)
		if !tc.want(iv, ok) {
			t.Errorf("%s: envelope interval for %q = %+v (ok=%v)", tc.name, tc.v, iv, ok)
		}
	}
}

// TestIntervalIntersects pins the endpoint semantics of the overlap test.
func TestIntervalIntersects(t *testing.T) {
	mk := func(lo, hi int64, loOpen, hiOpen bool) Interval {
		return Interval{
			Lower: rational.FromInt(lo), HasLower: true, LowerOpen: loOpen,
			Upper: rational.FromInt(hi), HasUpper: true, UpperOpen: hiOpen,
		}
	}
	unbounded := Interval{}
	cases := []struct {
		name string
		a, b Interval
		want bool
	}{
		{"overlap", mk(1, 3, false, false), mk(2, 4, false, false), true},
		{"touching-closed", mk(1, 2, false, false), mk(2, 3, false, false), true},
		{"touching-open-left", mk(1, 2, false, true), mk(2, 3, false, false), false},
		{"touching-open-right", mk(1, 2, false, false), mk(2, 3, true, false), false},
		{"separated", mk(1, 2, false, false), mk(3, 4, false, false), false},
		{"unbounded-both", unbounded, mk(10, 20, false, false), true},
		{"empty-side", mk(3, 2, false, false), unbounded, false},
	}
	for _, tc := range cases {
		if got := tc.a.Intersects(tc.b); got != tc.want {
			t.Errorf("%s: Intersects = %v, want %v", tc.name, got, tc.want)
		}
		if got := tc.b.Intersects(tc.a); got != tc.want {
			t.Errorf("%s (flipped): Intersects = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestEnvelopeMemoized checks that Canon attaches a shared envelope box:
// copies of a canonical conjunction share one lazily-computed envelope.
func TestEnvelopeMemoized(t *testing.T) {
	j := And(GeConst("x", rational.FromInt(1)), LeConst("x", rational.FromInt(9))).Canon()
	if j.env == nil {
		t.Fatal("Canon did not attach an envelope box")
	}
	cp := j
	_ = j.Envelope()
	if cp.env != j.env {
		t.Fatal("copy does not share the envelope box")
	}
	iv, ok := cp.Envelope().Interval("x")
	if !ok || !iv.HasLower || !iv.HasUpper {
		t.Fatalf("memoized envelope lost the bounds: %+v (ok=%v)", iv, ok)
	}
	// True and False are canonical constants with pre-attached boxes.
	if True().env == nil || False().env == nil {
		t.Error("True/False constants carry no envelope box")
	}
}
