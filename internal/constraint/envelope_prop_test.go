package constraint_test

// The envelope's two soundness properties — it contains the exact
// projection, and disjoint envelopes mean an unsatisfiable merge — on
// random conjunctions, on the paper's Query 3 (the hurricane track and its
// merges with owned parcels), and as a fuzz target. The external test
// package lets them read datagen's relations without an import cycle.
//
// Run the target with: go test ./internal/constraint -run '^$' -fuzz FuzzEnvelope

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/datagen"
	"cdb/internal/rational"
)

// intervalContains reports whether outer ⊇ inner as sets of rationals.
func intervalContains(outer, inner constraint.Interval) bool {
	if inner.IsEmpty() {
		return true
	}
	if outer.HasLower {
		if !inner.HasLower {
			return false
		}
		c := outer.Lower.Cmp(inner.Lower)
		if c > 0 || (c == 0 && outer.LowerOpen && !inner.LowerOpen) {
			return false
		}
	}
	if outer.HasUpper {
		if !inner.HasUpper {
			return false
		}
		c := outer.Upper.Cmp(inner.Upper)
		if c < 0 || (c == 0 && outer.UpperOpen && !inner.UpperOpen) {
			return false
		}
	}
	return true
}

// singleVarEnvelope is the envelope of j's single-variable atoms alone:
// what j's envelope would be without the propagation passes.
func singleVarEnvelope(j constraint.Conjunction) constraint.Envelope {
	var cs []constraint.Constraint
	for _, c := range j.Constraints() {
		if len(c.Expr.Terms()) == 1 {
			cs = append(cs, c)
		}
	}
	return constraint.And(cs...).Envelope()
}

// query3Parts are the two sides of Query 3's track join on 8 × 8 parcels:
// every owned parcel (an owner's time interval ∧ its parcel's box) and the
// track's segments.
func query3Parts() (parcels, track []constraint.Conjunction) {
	land, owners, hurricane := datagen.HurricaneRelations(8)
	for _, o := range owners.Tuples() {
		id, _ := o.RVal("landId")
		for _, l := range land.Tuples() {
			if lid, _ := l.RVal("landId"); lid.Equal(id) {
				parcels = append(parcels, o.Constraint().Merge(l.Constraint()).Canon())
			}
		}
	}
	for _, s := range hurricane.Tuples() {
		track = append(track, s.Constraint())
	}
	return parcels, track
}

// checkContainsExact fails t unless j's envelope contains j's exact bounds
// on every variable (j satisfiable), and returns how many of j's variables
// only the propagation passes bounded.
func checkContainsExact(t *testing.T, what string, j constraint.Conjunction) (propagated int) {
	t.Helper()
	if !j.IsSatisfiable() {
		return 0
	}
	env, single := j.Envelope(), singleVarEnvelope(j)
	for _, v := range j.Vars() {
		exact, ok := j.VarBounds(v)
		if !ok {
			t.Fatalf("%s: satisfiable conjunction with unsat VarBounds(%q): %s", what, v, j)
		}
		outer, bounded := env.Interval(v)
		if !bounded {
			continue // (-∞,∞) contains everything
		}
		if _, before := single.Interval(v); !before {
			propagated++
		}
		if !intervalContains(outer, exact) {
			t.Errorf("%s: envelope %+v does not contain exact bounds %+v for %q in %s", what, outer, exact, v, j)
		}
	}
	return propagated
}

// TestEnvelopeContainsExactBounds is the filter's soundness property: every
// envelope interval contains the exact Fourier-Motzkin projection
// (VarBounds) of that variable — the envelope over-approximates, never
// clips. It runs on random conjunctions, on Query 3's track segments and on
// their merges with owned parcels, where the segments' = atoms bound x and
// y only through propagation; it fails if no interval was bounded that way.
func TestEnvelopeContainsExactBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	propagated := 0
	for i := 0; i < 400; i++ {
		j := constraint.RandConj(rng).Canon()
		propagated += checkContainsExact(t, "random", j)
		checkKeys(t, "random", j)
	}
	parcels, track := query3Parts()
	for _, s := range track {
		propagated += checkContainsExact(t, "query 3 track", s)
		for _, p := range parcels {
			propagated += checkContainsExact(t, "query 3 merge", p.Merge(s).Canon())
		}
	}
	t.Logf("%d intervals bounded by propagation only", propagated)
	if propagated == 0 {
		t.Fatal("no interval was bounded by propagation alone; the passes were never exercised")
	}
}

// checkKeys fails t unless every key of j's envelope is its endpoint
// correctly rounded (math/big's Rat.Float64), exact bit set exactly when
// the key equals the endpoint, open and empty bits as the interval has
// them, and an absent endpoint's key an exact infinity.
func checkKeys(t *testing.T, what string, j constraint.Conjunction) {
	t.Helper()
	env := j.Envelope()
	for _, v := range j.Vars() {
		iv, _ := env.Interval(v) // absent: the unbounded zero Interval
		k := env.Keys(v)
		end := func(name string, has bool, r rational.Rat, open bool, key float64, inf int, exactBit, openBit constraint.KeyBits) {
			t.Helper()
			gotExact, gotOpen := k.Bits&exactBit != 0, k.Bits&openBit != 0
			if !has {
				if !math.IsInf(key, inf) || !gotExact || gotOpen {
					t.Errorf("%s: %q has no %s endpoint, keys %+v", what, v, name, k)
				}
				return
			}
			want, exact := new(big.Rat).SetFrac(r.Num(), r.Denom()).Float64()
			if key != want || gotExact != exact || gotOpen != open {
				t.Errorf("%s: %q %s endpoint %s (open %v): key %v exact %v open %v, want %v exact %v",
					what, v, name, r, open, key, gotExact, gotOpen, want, exact)
			}
		}
		end("lower", iv.HasLower, iv.Lower, iv.LowerOpen, k.Lo, -1, constraint.LoExact, constraint.LoOpen)
		end("upper", iv.HasUpper, iv.Upper, iv.UpperOpen, k.Hi, 1, constraint.HiExact, constraint.HiOpen)
		if (k.Bits&constraint.Empty != 0) != iv.IsEmpty() {
			t.Errorf("%s: %q interval %+v, empty bit %v", what, v, iv, k.Bits&constraint.Empty != 0)
		}
	}
}

// checkDisjointUnsat fails t if a and b have disjoint envelopes on their
// variables and yet a satisfiable merge, and reports whether they are
// disjoint and whether only the propagation passes made them so.
func checkDisjointUnsat(t *testing.T, what string, a, b constraint.Conjunction) (disjoint, propagated bool) {
	t.Helper()
	merged := a.Merge(b)
	vars := merged.Vars()
	if !a.Envelope().Disjoint(b.Envelope(), vars) {
		return false, false
	}
	if merged.Canon().IsSatisfiable() {
		t.Errorf("%s: disjoint envelopes but satisfiable merge: %s AND %s", what, a, b)
	}
	return true, !singleVarEnvelope(a).Disjoint(singleVarEnvelope(b), vars)
}

// TestEnvelopeDisjointImpliesUnsat is the filter's reject-side soundness:
// whenever two conjunctions have disjoint envelopes on the shared
// variables, their merge must be unsatisfiable — a pruned pair is one the
// refine step would have rejected anyway. It runs on random pairs and on
// Query 3's track join (owned parcel × segment), where some 600 rejects need
// the segments' propagated x and y; it fails if none did.
func TestEnvelopeDisjointImpliesUnsat(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	disjoint, propagated := 0, 0
	count := func(d, p bool) {
		if d {
			disjoint++
		}
		if p {
			propagated++
		}
	}
	for i := 0; i < 600; i++ {
		count(checkDisjointUnsat(t, "random", constraint.RandConj(rng).Canon(), constraint.RandConj(rng).Canon()))
	}
	parcels, track := query3Parts()
	for _, p := range parcels {
		for _, s := range track {
			count(checkDisjointUnsat(t, "query 3", p, s))
		}
	}
	t.Logf("%d disjoint pairs, %d of them by propagation only", disjoint, propagated)
	if disjoint == 0 || propagated == 0 {
		t.Fatalf("%d disjoint pairs, %d by propagation only; a property was never exercised", disjoint, propagated)
	}
}

// envelopeSeeds are FuzzEnvelope's seeds, "a ; b" in the stored-tuple
// syntax: shapes where propagation derives a bound, or must not.
var envelopeSeeds = []string{
	"x = 2t + 1, y = 3 - t, t >= 0, t <= 5 ; x >= 12, y >= 0",
	"x - y = 0, y - z = 0, z >= 0, z <= 1 ; x >= 2",
	"x + y < 4, x >= 1, y >= 0 ; x > 4",
	"x + y <= 3, x - y <= 1 ; x >= 100",
	"2x + 3y = 6, x >= 0, y >= 0 ; y > 2",
	"x - y <= 1/2, y - x <= 1/2, x >= 0, x <= 48 ; x >= 6, x <= 11, y >= 13, y <= 17",
	"x + y <= 1, x >= 2, y >= 0 ; x >= 0",
	"x = y, y >= 3, y < 3 ; x >= 0",
	"x + y >= 1, 2x - y < 2, x - 2y >= -2 ; x >= 2",
	"x + y <= 110194328106169817/29062511108676235, x - y <= 1/3, y >= -9223372036854775807 ; x > 9223372036854775807/3",
	"x >= 1/3, x <= 36893488147419103233/3, y = x ; y < 1/2",
}

// FuzzEnvelope checks the envelope's two soundness properties on arbitrary
// "a ; b" input: on each canonical side, every interval contains the exact
// bounds (VarBounds), and envelopes disjoint on the sides' variables mean
// an unsatisfiable merge. It also checks each side's float keys
// (checkKeys). The committed corpus replays as a test.
func FuzzEnvelope(f *testing.F) {
	for _, s := range envelopeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		a, b, ok := parsePair(src)
		if !ok {
			return
		}
		a, b = a.Canon(), b.Canon()
		checkContainsExact(t, src, a)
		checkContainsExact(t, src, b)
		checkKeys(t, src, a)
		checkKeys(t, src, b)
		checkDisjointUnsat(t, src, a, b)
	})
}
