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

// randomClip draws a convex ring of 1 to 24 vertices (1 to 3 a third of
// the time) and a half-plane through one or two of the ring's own vertices
// (so vertices lie exactly on the boundary), through none, a trivial one,
// or one that keeps or cuts all.
func randomClip(rng *rand.Rand) ([]Point, HalfPlane) {
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
			h = negHalfPlane(h)
		}
	default:
		h = HalfPlane{
			A: rational.New(rng.Int63n(9)-4, 1+rng.Int63n(3)),
			B: rational.New(rng.Int63n(9)-4, 1+rng.Int63n(3)),
			C: rational.New(rng.Int63n(41)-20, 1+rng.Int63n(3)),
		}
	}
	return ring, h
}

func negHalfPlane(h HalfPlane) HalfPlane {
	return HalfPlane{A: h.A.Neg(), B: h.B.Neg(), C: h.C.Neg()}
}

// TestClipRingMatchesReference: the same points in the same order as the
// reference on randomClip's rings and half-planes.
func TestClipRingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var cutAll, cutNone, cutSome, onBoundary int
	for i := 0; i < 3000; i++ {
		ring, h := randomClip(rng)
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

// TestSplitIsTheTwoClips: on randomClip's rings and half-planes, Split's
// Le and Ge sides are the reference clips by h and by -h, the same points
// in the same order, whichever sides it is asked to build; it never writes
// to its input; its bits do not depend on what it builds; and on an input
// of positive area and a line (a non-trivial h) each side's bit says
// whether the side has positive area.
func TestSplitIsTheTwoClips(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var bothCut, flatSide, fullSide int
	for i := 0; i < 3000; i++ {
		ring, h := randomClip(rng)
		in := append([]Point(nil), ring...)
		wantLe := referenceClipRing(append([]Point(nil), ring...), h)
		wantGe := referenceClipRing(append([]Point(nil), ring...), negHalfPlane(h))
		both, le, ge := Split(ring, h, Le|Ge), Split(ring, h, Le), Split(ring, h, Ge)
		if !sameRing(both.Le, wantLe) || !sameRing(both.Ge, wantGe) || !sameRing(le.Le, wantLe) || !sameRing(ge.Ge, wantGe) {
			t.Fatalf("case %d: ring %v, half-plane %v\n split  %v | %v\n alone  %v | %v\n want   %v | %v",
				i, in, h, both.Le, both.Ge, le.Le, ge.Ge, wantLe, wantGe)
		}
		if le.Ge != nil || ge.Le != nil {
			t.Fatalf("case %d: a side not asked for was built: %v | %v", i, ge.Le, le.Ge)
		}
		if !sameRing(ring, in) {
			t.Fatalf("case %d: Split wrote to its input: %v, was %v", i, ring, in)
		}
		if le.LeIn != both.LeIn || ge.LeIn != both.LeIn || le.GeIn != both.GeIn || ge.GeIn != both.GeIn {
			t.Fatalf("case %d: the bits depend on the sides built", i)
		}
		if len(wantLe) > 0 && len(wantGe) > 0 && !sameRing(wantLe, in) && !sameRing(wantGe, in) {
			bothCut++
		}
		if RingArea2(ring).IsZero() || h.IsTrivial() {
			continue
		}
		for _, side := range []struct {
			ring []Point
			in   bool
		}{{both.Le, both.LeIn}, {both.Ge, both.GeIn}} {
			if full := !RingArea2(side.ring).IsZero(); full != side.in {
				t.Fatalf("case %d: strictly-inside bit %v on a side of area·2 %s\n ring %v, half-plane %v", i, side.in, RingArea2(side.ring), in, h)
			}
			if len(side.ring) > 0 && side.in {
				fullSide++
			} else if len(side.ring) > 0 {
				flatSide++
			}
		}
	}
	if bothCut < 200 || flatSide < 200 || fullSide < 200 {
		t.Fatalf("fixture too thin: both sides cut %d, flat non-empty sides %d, full sides %d", bothCut, flatSide, fullSide)
	}
}

// TestClipRingAllocs: a clip that cuts nothing returns the ring and one
// that cuts everything returns nil, neither allocating; a clip that cuts
// some of a ring of at most 16 vertices allocates the output ring only
// (the per-vertex values stay on the stack). A split allocates once when
// both sides are cut (they share one array), and otherwise as the clip of
// the side that is cut.
func TestClipRingAllocs(t *testing.T) {
	ring := RectPoly(0, 0, 4, 4).Vertices()
	hex := MustPolygon(Pt(2, 0), Pt(4, 1), Pt(4, 3), Pt(2, 4), Pt(0, 3), Pt(0, 1)).Vertices()
	for _, c := range []struct {
		name       string
		ring       []Point
		h          HalfPlane
		max, split float64
	}{
		{"nothing cut", ring, hp(1, 0, -9), 0, 0},
		{"nothing cut, vertices on the boundary", ring, hp(1, 0, -4), 0, 1},
		{"everything cut", ring, hp(1, 0, 1), 0, 0},
		{"trivial", ring, hp(0, 0, -1), 0, 0},
		{"trivial, on the line", ring, hp(0, 0, 0), 0, 0},
		{"square halved", ring, hp(1, 0, -2), 1, 1},
		{"square cut down to an edge", ring, hp(1, 0, 0), 1, 1},
		{"hexagon cut obliquely", hex, hp(1, 1, -5), 1, 1},
		{"point kept", ring[:1], hp(1, 0, -2), 0, 0},
		{"segment kept", ring[:2], hp(1, 0, -9), 0, 0},
		{"segment cut", ring[:2], hp(1, 0, -2), 1, 2},
	} {
		var out []Point
		if got := testing.AllocsPerRun(50, func() { out = ClipRing(c.ring, c.h) }); got > c.max {
			t.Errorf("%s: %v allocations, want at most %v (result %v)", c.name, got, c.max, out)
		}
		var cut Cut
		if got := testing.AllocsPerRun(50, func() { cut = Split(c.ring, c.h, Le|Ge) }); got > c.split {
			t.Errorf("%s, split: %v allocations, want at most %v (result %v | %v)", c.name, got, c.split, cut.Le, cut.Ge)
		}
	}
}
