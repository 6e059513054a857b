package geometry

import (
	"testing"

	"cdb/internal/rational"
)

func hp(a, b, c int64) HalfPlane {
	return HalfPlane{A: rational.FromInt(a), B: rational.FromInt(b), C: rational.FromInt(c)}
}

// clip is the closed side ring ∩ {h <= 0}.
func clip(ring []Point, h HalfPlane) []Point {
	return SplitLabelled(ring, nil, h, 0, Le).Le
}

// clipAll intersects a ring with every half-plane in turn.
func clipAll(ring []Point, hs []HalfPlane) []Point {
	for _, h := range hs {
		ring = clip(ring, h)
		if len(ring) == 0 {
			return nil
		}
	}
	return ring
}

func TestClipRingSquareByLine(t *testing.T) {
	sq := RectPoly(0, 0, 4, 4)
	// x <= 2
	out := clip(sq.Vertices(), hp(1, 0, -2))
	got, err := NewPolygon(out)
	if err != nil {
		t.Fatalf("clip result not a polygon: %v", err)
	}
	want := RectPoly(0, 0, 2, 4)
	if !got.Area().Equal(want.Area()) {
		t.Fatalf("clipped area = %s, want %s", got.Area(), want.Area())
	}
}

func TestClipRingExactCrossing(t *testing.T) {
	// Triangle (0,0) (3,0) (0,3) clipped by x <= 1: crossing on the
	// hypotenuse must be the exact rational point (1, 2).
	tri := MustPolygon(Pt(0, 0), Pt(3, 0), Pt(0, 3))
	out := clip(tri.Vertices(), hp(1, 0, -1))
	found := false
	for _, p := range out {
		if p.Equal(Pt(1, 2)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected exact crossing (1,2) in %v", out)
	}
}

func TestClipRingEmpty(t *testing.T) {
	sq := RectPoly(0, 0, 2, 2)
	// x <= -1 removes everything.
	if out := clip(sq.Vertices(), hp(1, 0, 1)); len(out) != 0 {
		t.Fatalf("expected empty clip, got %v", out)
	}
}

func TestClipRingTouchingBoundary(t *testing.T) {
	sq := RectPoly(0, 0, 2, 2)
	// x <= 0 leaves exactly the left edge: a degenerate 2-point ring.
	out := clip(sq.Vertices(), hp(1, 0, 0))
	if len(out) != 2 {
		t.Fatalf("expected 2-point degenerate ring, got %v", out)
	}
	if !ringArea2(out).IsZero() {
		t.Fatalf("degenerate ring should have zero area")
	}
	// A further clip y <= 0 leaves the single corner (0,0).
	out = clip(out, hp(0, 1, 0))
	if len(out) != 1 || !out[0].Equal(Pt(0, 0)) {
		t.Fatalf("expected single corner (0,0), got %v", out)
	}
	// And y <= -1 removes even that.
	if out = clip(out, hp(0, 1, 1)); len(out) != 0 {
		t.Fatalf("expected empty after cutting the corner, got %v", out)
	}
}

func TestClipRingTrivialHalfPlanes(t *testing.T) {
	sq := RectPoly(0, 0, 2, 2)
	// 0 <= 0: whole plane, no-op.
	if out := clip(sq.Vertices(), hp(0, 0, 0)); len(out) != 4 {
		t.Fatalf("whole-plane clip changed the ring: %v", out)
	}
	// 0·x + 0·y + 1 <= 0: empty.
	if out := clip(sq.Vertices(), hp(0, 0, 1)); len(out) != 0 {
		t.Fatalf("empty half-plane should clear the ring")
	}
}

func TestEdgeHalfPlanesRoundTrip(t *testing.T) {
	// Intersecting a big box with a polygon's own edge half-planes must
	// reproduce the polygon exactly (same area, convex).
	poly := MustPolygon(Pt(1, 1), Pt(5, 2), Pt(4, 6), Pt(0, 4))
	box := RectPoly(-10, -10, 10, 10)
	out := clipAll(box.Vertices(), EdgeHalfPlanes(poly))
	got, err := NewPolygon(out)
	if err != nil {
		t.Fatalf("round trip not a polygon: %v", err)
	}
	if !got.Area().Equal(poly.Area()) {
		t.Fatalf("round-trip area = %s, want %s", got.Area(), poly.Area())
	}
}

func TestClipConvexIntersectionAgainstContains(t *testing.T) {
	// Two overlapping convex polygons: the clip of one by the other's
	// half-planes is their intersection. Every vertex of the result must
	// lie in both closed polygons, and the area must match the known
	// overlap for this fixture.
	a := RectPoly(0, 0, 4, 4)
	b := MustPolygon(Pt(2, -1), Pt(7, 2), Pt(2, 7))
	out := clipAll(a.Vertices(), EdgeHalfPlanes(b))
	if len(out) < 3 {
		t.Fatalf("expected a proper intersection, got %v", out)
	}
	for _, p := range out {
		if !a.Contains(p) || !b.Contains(p) {
			t.Fatalf("intersection vertex %v outside an input", p)
		}
	}
	// Symmetry: clipping b by a's half-planes gives the same area.
	out2 := clipAll(b.Vertices(), EdgeHalfPlanes(a))
	if !ringArea2(out).Abs().Equal(ringArea2(out2).Abs()) {
		t.Fatalf("asymmetric intersection areas: %s vs %s",
			ringArea2(out), ringArea2(out2))
	}
}

func TestClipDisjointPolygons(t *testing.T) {
	a := RectPoly(0, 0, 1, 1)
	b := RectPoly(5, 5, 6, 6)
	if out := clipAll(a.Vertices(), EdgeHalfPlanes(b)); len(out) != 0 {
		t.Fatalf("disjoint polygons produced non-empty clip: %v", out)
	}
}

func TestClipTouchingPolygonsShareEdge(t *testing.T) {
	// Closed regions sharing only an edge: intersection is the shared
	// segment — non-empty but zero area. This is the case that forces the
	// vector path to treat degenerate rings as satisfiable.
	a := RectPoly(0, 0, 2, 2)
	b := RectPoly(2, 0, 4, 2)
	out := clipAll(a.Vertices(), EdgeHalfPlanes(b))
	if len(out) == 0 {
		t.Fatalf("touching polygons must yield a non-empty (degenerate) clip")
	}
	if !ringArea2(out).IsZero() {
		t.Fatalf("shared-edge intersection should be degenerate, got area2 %s",
			ringArea2(out))
	}
}
