package geometry

import "cdb/internal/rational"

// HalfPlane is the closed half-plane a·x + b·y + c <= 0. It is the
// geometric twin of a canonical `Le` linear constraint atom over two
// spatial variables, and the clipping primitive of the vector fast path:
// a convex region is the intersection of its edge half-planes, and
// clipping a vertex ring by each half-plane in turn (Sutherland–Hodgman)
// computes the exact intersection of two convex regions.
type HalfPlane struct {
	A, B, C rational.Rat
}

// Eval returns a·x + b·y + c at the point.
func (h HalfPlane) Eval(p Point) rational.Rat {
	return h.A.Mul(p.X).Add(h.B.Mul(p.Y)).Add(h.C)
}

// Side returns the sign of Eval: <= 0 means the point satisfies the
// closed half-plane, > 0 means it is cut away.
func (h HalfPlane) Side(p Point) int { return h.Eval(p).Sign() }

// IsTrivial reports whether the half-plane has a zero normal (a = b = 0):
// it is then either the whole plane (c <= 0) or empty (c > 0) and cannot
// be clipped against geometrically.
func (h HalfPlane) IsTrivial() bool { return h.A.IsZero() && h.B.IsZero() }

// EdgeHalfPlanes returns the closed half-planes whose intersection is the
// convex polygon: one per CCW edge, interior on the <= 0 side. For edge
// (p, q) the outward normal is (q-p) rotated -90°, giving
// (qy-py)·(x-px) - (qx-px)·(y-py) <= 0.
func EdgeHalfPlanes(p Polygon) []HalfPlane {
	vs := p.Vertices()
	n := len(vs)
	out := make([]HalfPlane, n)
	for i := 0; i < n; i++ {
		a, b := vs[i], vs[(i+1)%n]
		dx, dy := b.X.Sub(a.X), b.Y.Sub(a.Y)
		// dy·x - dx·y + (dx·ay - dy·ax) <= 0
		out[i] = HalfPlane{
			A: dy,
			B: dx.Neg(),
			C: dx.Mul(a.Y).Sub(dy.Mul(a.X)),
		}
	}
	return out
}

// ClipRing clips a convex vertex ring by one closed half-plane
// (Sutherland–Hodgman, exact rational crossings). The input ring may be
// degenerate — a single point, a segment (2 vertices), or a proper CCW
// polygon ring — and the output may likewise degenerate to fewer than 3
// vertices or to nil (empty intersection). Points exactly on the boundary
// (Eval == 0) are kept: the result is the exact intersection of the
// closed region with the closed half-plane.
//
// The ring must hold no consecutive duplicate points (Polygon.Vertices and
// ClipRing's own results hold none). h is evaluated once per vertex; when
// no vertex is cut away the ring itself is returned, so a caller must not
// write to a result it did not own.
func ClipRing(ring []Point, h HalfPlane) []Point {
	n := len(ring)
	if n == 0 {
		return nil
	}
	if h.IsTrivial() {
		if h.C.Sign() > 0 {
			return nil // empty half-plane: a·x+b·y+c <= 0 with a=b=0, c>0
		}
		return ring // whole plane: no-op
	}
	var buf [16]rational.Rat // rings this small keep their values on the stack
	vals := buf[:0]
	if n > len(buf) {
		vals = make([]rational.Rat, 0, n)
	}
	kept := 0
	for _, p := range ring {
		v := h.Eval(p)
		if v.Sign() <= 0 {
			kept++
		}
		vals = append(vals, v)
	}
	switch kept {
	case n:
		return ring
	case 0:
		return nil
	}
	// A 2-point ring is an open polyline (a segment), not a closed ring:
	// clipping the wraparound edge twice would duplicate crossings. One end
	// is kept, the other replaced by the crossing (which is the kept end
	// itself when that end lies on the boundary).
	if n == 2 {
		x := crossing(ring[0], ring[1], vals[0], vals[1])
		if vals[0].Sign() <= 0 {
			return dedupeRing([]Point{ring[0], x})
		}
		return dedupeRing([]Point{x, ring[1]})
	}
	out := make([]Point, 0, n+1)
	for i, cur := range ring {
		k := i + 1
		if k == n {
			k = 0
		}
		cs, ns := vals[i].Sign(), vals[k].Sign()
		if cs <= 0 {
			out = append(out, cur)
		}
		// Emit the exact crossing when the edge strictly straddles the
		// boundary. Edges touching the boundary (value 0 endpoints) need no
		// extra point: the on-boundary endpoint itself is kept above.
		if (cs < 0 && ns > 0) || (cs > 0 && ns < 0) {
			out = append(out, crossing(cur, ring[k], vals[i], vals[k]))
		}
	}
	return dedupeRing(out)
}

// crossing returns the exact intersection of segment a-b with the
// boundary line of the half-plane whose values at a and b are va and vb.
// Callers guarantee the values differ (one end is kept, the other cut), so
// the denominator is non-zero.
func crossing(a, b Point, va, vb rational.Rat) Point {
	t := va.Div(va.Sub(vb)) // in [0, 1]
	return Point{
		X: a.X.Add(t.Mul(b.X.Sub(a.X))),
		Y: a.Y.Add(t.Mul(b.Y.Sub(a.Y))),
	}
}

// dedupeRing removes consecutive duplicate points, including the
// wraparound pair, preserving order.
func dedupeRing(ring []Point) []Point {
	if len(ring) < 2 {
		return ring
	}
	out := ring[:0]
	for _, p := range ring {
		if len(out) == 0 || !p.Equal(out[len(out)-1]) {
			out = append(out, p)
		}
	}
	for len(out) > 1 && out[0].Equal(out[len(out)-1]) {
		out = out[:len(out)-1]
	}
	return out
}

// RingArea2 returns 2·(signed area) of the ring via the shoelace formula
// (zero for degenerate rings of fewer than 3 vertices).
func RingArea2(ring []Point) rational.Rat {
	if len(ring) < 3 {
		return rational.Zero
	}
	sum := rational.Zero
	n := len(ring)
	for i := 0; i < n; i++ {
		sum = sum.Add(ring[i].Cross(ring[(i+1)%n]))
	}
	return sum
}
