package constraint

import (
	"math/rand"
	"testing"

	"cdb/internal/rational"
)

// randBoundedEnv builds a conjunction whose envelope carries a random
// mix of bounds on "x": none, one-sided, two-sided (possibly empty),
// open or closed, so the overlap counter sees every endpoint shape.
func randBoundedEnv(rng *rand.Rand) Envelope {
	var cs []Constraint
	if rng.Intn(6) > 0 { // 1-in-6 envelopes leave x unbounded
		lo := rational.FromInt(int64(rng.Intn(21) - 10))
		hi := rational.FromInt(int64(rng.Intn(21) - 10))
		switch rng.Intn(4) {
		case 0:
			cs = append(cs, GeConst("x", lo))
		case 1:
			cs = append(cs, LeConst("x", hi))
		case 2: // possibly empty when hi < lo
			if rng.Intn(2) == 0 {
				cs = append(cs, GeConst("x", lo))
			} else {
				cs = append(cs, GtConst("x", lo))
			}
			if rng.Intn(2) == 0 {
				cs = append(cs, LeConst("x", hi))
			} else {
				cs = append(cs, LtConst("x", hi))
			}
		case 3:
			cs = append(cs, EqConst("x", lo))
		}
	}
	if rng.Intn(3) == 0 { // unrelated bound on another variable
		cs = append(cs, GeConst("y", rational.FromInt(int64(rng.Intn(5)))))
	}
	return And(cs...).Envelope()
}

// TestAttrOverlapCountMatchesBruteForce checks the sort-and-search
// counter against the O(n·m) definition (Interval.Intersects semantics,
// missing interval = unbounded) on many random envelope sets.
func TestAttrOverlapCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	full := Interval{} // unbounded both ways
	for round := 0; round < 200; round++ {
		a := make([]Envelope, rng.Intn(12))
		b := make([]Envelope, rng.Intn(12))
		for i := range a {
			a[i] = randBoundedEnv(rng)
		}
		for i := range b {
			b[i] = randBoundedEnv(rng)
		}
		var want int64
		for _, ea := range a {
			ia, ok := ea.Interval("x")
			if !ok {
				ia = full
			}
			for _, eb := range b {
				ib, ok := eb.Interval("x")
				if !ok {
					ib = full
				}
				if ia.Intersects(ib) {
					want++
				}
			}
		}
		if got := AttrOverlapCount(a, b, "x"); got != want {
			t.Fatalf("round %d: AttrOverlapCount = %d, brute force = %d", round, got, want)
		}
	}
}

// TestAttrOverlapCountEndpoints pins the open-endpoint edge cases the
// epsilon encoding exists for: closed touch intersects, any open touch
// does not, empty intervals count nothing.
func TestAttrOverlapCountEndpoints(t *testing.T) {
	five := rational.FromInt(5)
	env := func(cs ...Constraint) []Envelope { return []Envelope{And(cs...).Envelope()} }
	cases := []struct {
		name string
		a, b []Envelope
		want int64
	}{
		{"closed-touch", env(LeConst("x", five)), env(GeConst("x", five)), 1},
		{"open-upper-touch", env(LtConst("x", five)), env(GeConst("x", five)), 0},
		{"open-lower-touch", env(LeConst("x", five)), env(GtConst("x", five)), 0},
		{"empty-side", env(GtConst("x", five), LtConst("x", five)), env(GeConst("x", five)), 0},
		{"point-point", env(EqConst("x", five)), env(EqConst("x", five)), 1},
		{"unbounded-vs-empty", env(), env(GtConst("x", five), LeConst("x", five)), 0},
	}
	for _, tc := range cases {
		if got := AttrOverlapCount(tc.a, tc.b, "x"); got != tc.want {
			t.Errorf("%s: AttrOverlapCount = %d, want %d", tc.name, got, tc.want)
		}
	}
}
