package convert

import (
	"math/rand"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/geometry"
	"cdb/internal/rational"
)

func q(s string) rational.Rat { return rational.MustParse(s) }

func holdsAt(j constraint.Conjunction, x, y int64) bool {
	ok, err := j.Holds(map[string]rational.Rat{
		"x": rational.FromInt(x), "y": rational.FromInt(y)})
	if err != nil {
		panic(err)
	}
	return ok
}

func TestConvexPolygonToConjunction(t *testing.T) {
	sq := geometry.RectPoly(0, 0, 4, 4)
	j, err := ConvexPolygonToConjunction(sq, "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	// Grid cross-check against exact polygon containment.
	for x := int64(-1); x <= 5; x++ {
		for y := int64(-1); y <= 5; y++ {
			want := sq.Contains(geometry.Pt(x, y))
			if got := holdsAt(j, x, y); got != want {
				t.Errorf("(%d,%d): conjunction=%v polygon=%v", x, y, got, want)
			}
		}
	}
	// Non-convex input is rejected.
	l := geometry.MustPolygon(geometry.Pt(0, 0), geometry.Pt(4, 0), geometry.Pt(4, 2),
		geometry.Pt(2, 2), geometry.Pt(2, 4), geometry.Pt(0, 4))
	if _, err := ConvexPolygonToConjunction(l, "x", "y"); err == nil {
		t.Error("concave polygon accepted")
	}
}

func TestPolygonToConjunctionsConcave(t *testing.T) {
	l := geometry.MustPolygon(geometry.Pt(0, 0), geometry.Pt(4, 0), geometry.Pt(4, 2),
		geometry.Pt(2, 2), geometry.Pt(2, 4), geometry.Pt(0, 4))
	cons, err := PolygonToConjunctions(l, "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if len(cons) < 2 {
		t.Fatalf("concave polygon gave %d pieces", len(cons))
	}
	inAny := func(x, y int64) bool {
		for _, j := range cons {
			if holdsAt(j, x, y) {
				return true
			}
		}
		return false
	}
	for x := int64(-1); x <= 5; x++ {
		for y := int64(-1); y <= 5; y++ {
			want := l.Contains(geometry.Pt(x, y))
			if got := inAny(x, y); got != want {
				t.Errorf("(%d,%d): union=%v polygon=%v", x, y, got, want)
			}
		}
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	for _, seg := range []geometry.Segment{
		geometry.Seg(0, 0, 4, 2),
		geometry.Seg(1, 1, 1, 5),  // vertical
		geometry.Seg(-2, 3, 4, 3), // horizontal
		geometry.Seg(2, 2, 0, 0),  // reversed diagonal
	} {
		j := SegmentToConjunction(seg, "x", "y")
		// Midpoint is on the segment; points off it are not.
		mid := seg.A.Add(seg.B).Scale(rational.Half)
		ok, _ := j.Holds(map[string]rational.Rat{"x": mid.X, "y": mid.Y})
		if !ok {
			t.Errorf("%s: midpoint rejected", seg)
		}
		off := mid.Add(geometry.Pt(0, 1).Sub(geometry.Pt(0, 0)))
		if seg.Contains(off) {
			off = mid.Add(geometry.Pt(1, 0).Sub(geometry.Pt(0, 0)))
		}
		ok, _ = j.Holds(map[string]rational.Rat{"x": off.X, "y": off.Y})
		if ok {
			t.Errorf("%s: off-segment point accepted", seg)
		}
		// Round trip.
		back, err := ConjunctionToSegment(j, "x", "y")
		if err != nil {
			t.Fatalf("%s: %v", seg, err)
		}
		sameFwd := back.A.Equal(seg.A) && back.B.Equal(seg.B)
		sameRev := back.A.Equal(seg.B) && back.B.Equal(seg.A)
		if !sameFwd && !sameRev {
			t.Errorf("%s: round trip gave %s", seg, back)
		}
	}
}

func TestPolylineToConjunctions(t *testing.T) {
	l := geometry.MustPolyline(geometry.Pt(0, 0), geometry.Pt(4, 0), geometry.Pt(4, 4))
	cons := PolylineToConjunctions(l, "x", "y")
	if len(cons) != 2 {
		t.Fatalf("pieces = %d", len(cons))
	}
	// The paper's redundancy observation: the joint vertex satisfies both
	// neighbouring tuples.
	for i, j := range cons {
		ok, _ := j.Holds(map[string]rational.Rat{"x": q("4"), "y": q("0")})
		if !ok {
			t.Errorf("piece %d misses the joint vertex", i)
		}
	}
}

func TestPointToConjunction(t *testing.T) {
	j := PointToConjunction(geometry.PtQ("3/2", "-7"), "x", "y")
	ok, _ := j.Holds(map[string]rational.Rat{"x": q("3/2"), "y": q("-7")})
	if !ok {
		t.Error("point rejected")
	}
	ok, _ = j.Holds(map[string]rational.Rat{"x": q("3/2"), "y": q("0")})
	if ok {
		t.Error("wrong point accepted")
	}
}

func TestConjunctionToPolygonRoundTrip(t *testing.T) {
	polys := []geometry.Polygon{
		geometry.RectPoly(0, 0, 4, 4),
		geometry.MustPolygon(geometry.Pt(0, 0), geometry.Pt(6, 0), geometry.Pt(3, 5)),
		geometry.MustPolygon(geometry.PtQ("1/2", "0"), geometry.PtQ("5/2", "1/3"), geometry.PtQ("1", "7/2")),
	}
	for _, p := range polys {
		j, err := ConvexPolygonToConjunction(p, "x", "y")
		if err != nil {
			t.Fatal(err)
		}
		back, err := ConjunctionToPolygon(j, "x", "y")
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !back.Area().Equal(p.Area()) {
			t.Errorf("%s: round-trip area %s vs %s", p, back.Area(), p.Area())
		}
		// Vertex sets must coincide.
		for _, v := range p.Vertices() {
			found := false
			for _, w := range back.Vertices() {
				if v.Equal(w) {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: vertex %s lost in round trip", p, v)
			}
		}
	}
}

func TestConjunctionToPolygonErrors(t *testing.T) {
	// Unbounded.
	unb := constraint.And(constraint.GeConst("x", q("0")), constraint.GeConst("y", q("0")))
	if _, err := ConjunctionToPolygon(unb, "x", "y"); err == nil {
		t.Error("unbounded region accepted")
	}
	// Unsatisfiable.
	unsat := constraint.And(constraint.GeConst("x", q("1")), constraint.LeConst("x", q("0")),
		constraint.EqConst("y", q("0")))
	if _, err := ConjunctionToPolygon(unsat, "x", "y"); err == nil {
		t.Error("unsat region accepted")
	}
	// Extra variable.
	extra := constraint.And(constraint.EqConst("z", q("0")))
	if _, err := ConjunctionVertices(extra, "x", "y"); err == nil {
		t.Error("extra variable accepted")
	}
	// Degenerate (a point) is rejected by ConjunctionToPolygon.
	pt := PointToConjunction(geometry.Pt(1, 1), "x", "y")
	if _, err := ConjunctionToPolygon(pt, "x", "y"); err == nil {
		t.Error("point region accepted as polygon")
	}
	// ...but its vertex is enumerable.
	vs, err := ConjunctionVertices(pt, "x", "y")
	if err != nil || len(vs) != 1 || !vs[0].Equal(geometry.Pt(1, 1)) {
		t.Errorf("point vertices = %v, %v", vs, err)
	}
}

// TestQuickTriangleRoundTrip: random triangles survive the
// constraints→vertices round trip with exact area.
func TestQuickTriangleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for iter := 0; iter < 200; iter++ {
		a := geometry.Pt(int64(rng.Intn(20)-10), int64(rng.Intn(20)-10))
		b := geometry.Pt(int64(rng.Intn(20)-10), int64(rng.Intn(20)-10))
		c := geometry.Pt(int64(rng.Intn(20)-10), int64(rng.Intn(20)-10))
		if geometry.Orientation(a, b, c) == 0 {
			continue
		}
		tri, err := geometry.NewPolygon([]geometry.Point{a, b, c})
		if err != nil {
			continue
		}
		j, err := ConvexPolygonToConjunction(tri, "x", "y")
		if err != nil {
			t.Fatal(err)
		}
		back, err := ConjunctionToPolygon(j, "x", "y")
		if err != nil {
			t.Fatalf("iter %d (%s): %v", iter, tri, err)
		}
		if !back.Area().Equal(tri.Area()) {
			t.Fatalf("iter %d: area %s != %s", iter, back.Area(), tri.Area())
		}
	}
}

// TestExample8VectorProjection reproduces §6 Example 8: projecting a
// region stored as a vertex sequence onto an axis is just the extrema of
// the coordinates — and must agree with the constraint-side projection via
// Fourier-Motzkin.
func TestExample8VectorProjection(t *testing.T) {
	tri := geometry.MustPolygon(geometry.Pt(1, 1), geometry.Pt(7, 2), geometry.Pt(3, 6))
	// Vector side: extrema of vertex x-coordinates.
	minX, _, maxX, _ := tri.BBox()
	// Constraint side: FM projection onto x.
	j, err := ConvexPolygonToConjunction(tri, "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	iv, ok := j.Project("x").VarBounds("x")
	if !ok {
		t.Fatal("projection unsat")
	}
	if !iv.Lower.Equal(minX) || !iv.Upper.Equal(maxX) {
		t.Errorf("FM projection [%s, %s] != vector extrema [%s, %s]",
			iv.Lower, iv.Upper, minX, maxX)
	}
}
