package geometry

import (
	"math/rand"
	"testing"

	"cdb/internal/rational"
)

// referenceClipRing, referenceClipSegment and referenceCrossing are the
// bodies ClipRing had while it evaluated the half-plane at every vertex
// twice and at both ends of a crossing edge a third time. Kept verbatim as
// the oracle for the evaluate-once body.
func referenceClipRing(ring []Point, h HalfPlane) []Point {
	if len(ring) == 0 {
		return nil
	}
	if h.IsTrivial() {
		if h.C.Sign() > 0 {
			return nil // empty half-plane: a·x+b·y+c <= 0 with a=b=0, c>0
		}
		return ring // whole plane: no-op
	}
	if len(ring) == 1 {
		if h.Side(ring[0]) <= 0 {
			return ring
		}
		return nil
	}
	// A 2-point ring is an open polyline (a segment), not a closed ring:
	// clipping the wraparound edge twice would duplicate crossings. Clip
	// the single segment directly.
	if len(ring) == 2 {
		return referenceClipSegment(ring[0], ring[1], h)
	}
	out := make([]Point, 0, len(ring)+1)
	n := len(ring)
	for i := 0; i < n; i++ {
		cur, next := ring[i], ring[(i+1)%n]
		cs, ns := h.Side(cur), h.Side(next)
		if cs <= 0 {
			out = append(out, cur)
		}
		// Emit the exact crossing when the edge strictly straddles the
		// boundary. Edges touching the boundary (side 0 endpoints) need no
		// extra point: the on-boundary endpoint itself is kept above.
		if (cs < 0 && ns > 0) || (cs > 0 && ns < 0) {
			out = append(out, referenceCrossing(cur, next, h))
		}
	}
	return dedupeRing(out)
}

func referenceClipSegment(a, b Point, h HalfPlane) []Point {
	as, bs := h.Side(a), h.Side(b)
	switch {
	case as <= 0 && bs <= 0:
		return dedupeRing([]Point{a, b})
	case as > 0 && bs > 0:
		return nil
	case as <= 0: // b is cut away
		return dedupeRing([]Point{a, referenceCrossing(a, b, h)})
	default: // a is cut away
		return dedupeRing([]Point{referenceCrossing(a, b, h), b})
	}
}

func referenceCrossing(a, b Point, h HalfPlane) Point {
	va, vb := h.Eval(a), h.Eval(b)
	t := va.Div(va.Sub(vb)) // in (0, 1)
	return Point{
		X: a.X.Add(t.Mul(b.X.Sub(a.X))),
		Y: a.Y.Add(t.Mul(b.Y.Sub(a.Y))),
	}
}

// convexRing returns a strictly convex CCW ring of n vertices: points of
// the parabola y = x²/4 taken left to right, scaled by a rational so the
// crossings leave the integers.
func convexRing(rng *rand.Rand, n int) []Point {
	x := rng.Int63n(9) - 4
	scale := rational.New(1+rng.Int63n(5), 1+rng.Int63n(3))
	ring := make([]Point, n)
	for i := range ring {
		ring[i] = Point{X: rational.FromInt(x).Mul(scale), Y: rational.New(x*x, 4).Mul(scale)}
		x += 1 + rng.Int63n(3)
	}
	return ring
}

func sameRing(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestClipRingMatchesReference: the same points in the same order as the
// reference on convex rings from 1 to 24 vertices, under half-planes
// through one or two of the ring's own vertices (so vertices lie exactly on
// the boundary), through none, trivial ones, and ones that keep or cut all.
func TestClipRingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var cutAll, cutNone, cutSome, onBoundary int
	for i := 0; i < 3000; i++ {
		n := 1 + rng.Intn(24)
		if rng.Intn(3) == 0 {
			n = 1 + rng.Intn(3)
		}
		ring := convexRing(rng, n)
		var h HalfPlane
		switch rng.Intn(6) {
		case 0: // trivial: the whole plane or nothing
			h = hp(0, 0, rng.Int63n(3)-1)
		case 1, 2: // a line through one vertex, often two, either side
			p, q := ring[rng.Intn(n)], ring[rng.Intn(n)]
			d := q.Sub(p)
			if rng.Intn(2) == 0 {
				d = Pt(rng.Int63n(7)-3, rng.Int63n(7)-3)
			}
			h = HalfPlane{A: d.Y, B: d.X.Neg(), C: d.X.Mul(p.Y).Sub(d.Y.Mul(p.X))}
			if rng.Intn(2) == 0 {
				h = HalfPlane{A: h.A.Neg(), B: h.B.Neg(), C: h.C.Neg()}
			}
		default:
			h = HalfPlane{
				A: rational.New(rng.Int63n(9)-4, 1+rng.Int63n(3)),
				B: rational.New(rng.Int63n(9)-4, 1+rng.Int63n(3)),
				C: rational.New(rng.Int63n(41)-20, 1+rng.Int63n(3)),
			}
		}
		in := append([]Point(nil), ring...)
		got, want := ClipRing(ring, h), referenceClipRing(append([]Point(nil), ring...), h)
		if !sameRing(got, want) {
			t.Fatalf("case %d: ring %v, half-plane %v\n got  %v\n want %v", i, in, h, got, want)
		}
		if !sameRing(ring, in) {
			t.Fatalf("case %d: ClipRing wrote to its input: %v, was %v", i, ring, in)
		}
		switch {
		case len(got) == 0:
			cutAll++
		case sameRing(got, in):
			cutNone++
		default:
			cutSome++
		}
		if !h.IsTrivial() {
			for _, p := range ring {
				if h.Side(p) == 0 {
					onBoundary++
					break
				}
			}
		}
	}
	if cutAll < 200 || cutNone < 200 || cutSome < 200 || onBoundary < 200 {
		t.Fatalf("fixture too thin: all cut %d, none cut %d, some cut %d, vertex on the boundary %d", cutAll, cutNone, cutSome, onBoundary)
	}
}

// TestClipRingAllocs: a clip that cuts nothing returns the ring and one
// that cuts everything returns nil, neither allocating; a clip that cuts
// some of a ring of at most 16 vertices allocates the output ring only
// (the per-vertex values stay on the stack).
func TestClipRingAllocs(t *testing.T) {
	ring := RectPoly(0, 0, 4, 4).Vertices()
	hex := MustPolygon(Pt(2, 0), Pt(4, 1), Pt(4, 3), Pt(2, 4), Pt(0, 3), Pt(0, 1)).Vertices()
	for _, c := range []struct {
		name string
		ring []Point
		h    HalfPlane
		max  float64
	}{
		{"nothing cut", ring, hp(1, 0, -9), 0},
		{"nothing cut, vertices on the boundary", ring, hp(1, 0, -4), 0},
		{"everything cut", ring, hp(1, 0, 1), 0},
		{"trivial", ring, hp(0, 0, -1), 0},
		{"square halved", ring, hp(1, 0, -2), 1},
		{"hexagon cut obliquely", hex, hp(1, 1, -5), 1},
		{"point kept", ring[:1], hp(1, 0, -2), 0},
		{"segment kept", ring[:2], hp(1, 0, -9), 0},
		{"segment cut", ring[:2], hp(1, 0, -2), 1},
	} {
		var out []Point
		if got := testing.AllocsPerRun(50, func() { out = ClipRing(c.ring, c.h) }); got > c.max {
			t.Errorf("%s: %v allocations, want at most %v (result %v)", c.name, got, c.max, out)
		}
	}
}
