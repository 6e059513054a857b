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
// (Sutherland–Hodgman, exact rational crossings): Split's Le side. The
// input ring may be degenerate — a single point, a segment (2 vertices),
// or a proper CCW polygon ring — and the output may likewise degenerate to
// fewer than 3 vertices or to nil (empty intersection). Points exactly on
// the boundary (Eval == 0) are kept: the result is the exact intersection
// of the closed region with the closed half-plane.
//
// The ring must hold no consecutive duplicate points (Polygon.Vertices and
// ClipRing's own results hold none). When no vertex is cut away the ring
// itself is returned, so a caller must not write to a result it did not
// own.
func ClipRing(ring []Point, h HalfPlane) []Point {
	return Split(ring, h, Le).Le
}

// Sides names the sides of a line Split builds.
type Sides uint8

const (
	Le Sides = 1 << iota // the closed side a·x + b·y + c <= 0
	Ge                   // the closed side a·x + b·y + c >= 0
)

// Label names the line an edge of a ring lies on. What a label stands for
// is the caller's business: SplitLabelled only hands labels on.
type Label int32

// Cut is a ring cut along the boundary line of a half-plane h.
type Cut struct {
	// Le and Ge are the ring's closed sides, ring ∩ {h <= 0} and
	// ring ∩ {h >= 0}: what ClipRing gives for h and for -h, point for
	// point. A side Split was not asked to build is nil.
	Le, Ge []Point
	// LeEdges and GeEdges label the sides' edges as SplitLabelled's edges
	// label the ring's: the edge from side[i] to side[i+1] (wrapping) lies
	// on the line LeEdges[i] (GeEdges[i]) names. Nil when no labels were
	// given, and for a cut 2-point ring, an open segment with no boundary
	// to label.
	LeEdges, GeEdges []Label
	// LeIn and GeIn report that some vertex lies strictly inside the side
	// (h < 0, h > 0). Both are set whatever Split builds. For a ring of
	// positive area and a non-trivial h, a side has positive area exactly
	// when its bit is set: a convex region with a vertex in an open
	// half-plane meets it in an open set, and a region with every vertex on
	// the closed far side meets the near side only on the line.
	LeIn, GeIn bool
}

// Split cuts a convex vertex ring (as ClipRing takes it) along the
// boundary line of h and builds the sides asked for, unlabelled: it is
// SplitLabelled without edge labels, and pays nothing for them.
func Split(ring []Point, h HalfPlane, build Sides) Cut {
	return SplitLabelled(ring, nil, h, 0, build)
}

// SplitLabelled is the one Sutherland–Hodgman body: it cuts a convex
// vertex ring along the boundary line of h and builds the sides asked for.
// h is evaluated once per vertex, each crossing is computed once and shared
// by both sides, a side no vertex is cut from is the ring itself and a side
// every vertex is cut from is nil — neither allocates — and when both sides
// are cut they share one allocation.
//
// edges, when not nil, labels the ring's edges: edges[i] names the line the
// edge from ring[i] to ring[i+1] (wrapping) lies on. Each side's edges are
// then labelled too: an edge that survives, whole or cut short, keeps its
// label, and the side's closing edge along h's line gets hl. Labels cost
// one more allocation when a side is cut, and nothing when edges is nil.
func SplitLabelled(ring []Point, edges []Label, h HalfPlane, hl Label, build Sides) Cut {
	n := len(ring)
	if n == 0 {
		return Cut{}
	}
	var buf [16]rational.Rat // rings this small keep their values on the stack
	vals := buf[:0]
	below, above := 0, 0 // vertices strictly on the Le / Ge side
	if h.IsTrivial() {
		// a = b = 0: every vertex evaluates to c.
		switch h.C.Sign() {
		case -1:
			below = n
		case 1:
			above = n
		}
	} else {
		if n > len(buf) {
			vals = make([]rational.Rat, 0, n)
		}
		for _, p := range ring {
			v := h.Eval(p)
			switch v.Sign() {
			case -1:
				below++
			case 1:
				above++
			}
			vals = append(vals, v)
		}
	}
	cut := Cut{LeIn: below > 0, GeIn: above > 0}
	// A side no vertex lies strictly beyond is the ring itself, one every
	// vertex lies strictly beyond is empty, and le / ge say which of the
	// rest are built below.
	le, ge := false, false
	if build&Le != 0 {
		if above == 0 {
			cut.Le, cut.LeEdges = ring, edges
		} else {
			le = above < n
		}
	}
	if build&Ge != 0 {
		if below == 0 {
			cut.Ge, cut.GeEdges = ring, edges
		} else {
			ge = below < n
		}
	}
	if !le && !ge {
		return cut
	}
	// A 2-point ring is an open polyline (a segment), not a closed ring:
	// clipping the wraparound edge twice would duplicate crossings. Each
	// side keeps its end and the crossing (which is the kept end itself when
	// that end lies on the boundary).
	if n == 2 {
		x := crossing(ring[0], ring[1], vals[0], vals[1])
		s0 := vals[0].Sign()
		if le {
			cut.Le, cut.LeEdges = segmentSide(ring, x, s0 <= 0), nil
		}
		if ge {
			cut.Ge, cut.GeEdges = segmentSide(ring, x, s0 >= 0), nil
		}
		return cut
	}
	// Each side of a cut convex ring keeps at most n-1 vertices plus two
	// crossings. Two sides share one array, each capped at its half so
	// neither writes into the other; their labels likewise.
	var lo, hi []Point
	switch {
	case le && ge:
		both := make([]Point, 0, 2*(n+1))
		lo, hi = both[:0:n+1], both[n+1:n+1]
	case le:
		lo = make([]Point, 0, n+1)
	default:
		hi = make([]Point, 0, n+1)
	}
	labelled := edges != nil
	var loL, hiL []Label
	if labelled {
		both := make([]Label, 0, 2*(n+1))
		loL, hiL = both[:0:n+1], both[n+1:n+1]
	}
	for i, cur := range ring {
		k := i + 1
		if k == n {
			k = 0
		}
		cs, ns := vals[i].Sign(), vals[k].Sign()
		// Each point is appended with the label of the edge that leaves it:
		// edge i's, unless that edge is cut away right after the point, in
		// which case the side goes on along h's line.
		if le && cs <= 0 {
			lo = append(lo, cur)
			if labelled {
				loL = append(loL, pick(cs == 0 && ns > 0, hl, edges[i]))
			}
		}
		if ge && cs >= 0 {
			hi = append(hi, cur)
			if labelled {
				hiL = append(hiL, pick(cs == 0 && ns < 0, hl, edges[i]))
			}
		}
		// Emit the exact crossing when the edge strictly straddles the
		// boundary. Edges touching the boundary (value 0 endpoints) need no
		// extra point: the on-boundary endpoint itself is kept above. Past
		// the crossing a side goes on along h's line when the edge leaves
		// it, and along edge i when the edge enters it.
		if (cs < 0 && ns > 0) || (cs > 0 && ns < 0) {
			x := crossing(cur, ring[k], vals[i], vals[k])
			if le {
				lo = append(lo, x)
				if labelled {
					loL = append(loL, pick(cs < 0, hl, edges[i]))
				}
			}
			if ge {
				hi = append(hi, x)
				if labelled {
					hiL = append(hiL, pick(cs > 0, hl, edges[i]))
				}
			}
		}
	}
	if le {
		cut.Le, cut.LeEdges = dedupeLabelled(lo, loL)
	}
	if ge {
		cut.Ge, cut.GeEdges = dedupeLabelled(hi, hiL)
	}
	return cut
}

// pick is a conditional expression for labels.
func pick(cond bool, a, b Label) Label {
	if cond {
		return a
	}
	return b
}

// segmentSide is the side of a cut segment that keeps its first end
// (first) or its second, with x the segment's crossing of the line.
func segmentSide(seg []Point, x Point, first bool) []Point {
	if first {
		return dedupeRing([]Point{seg[0], x})
	}
	return dedupeRing([]Point{x, seg[1]})
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
	out, _ := dedupeLabelled(ring, nil)
	return out
}

// dedupeLabelled is dedupeRing that removes labels with their points when
// labels is not nil: the zero-length edge between two equal points goes,
// and the point that stays leaves along the edge that left the one removed.
func dedupeLabelled(ring []Point, labels []Label) ([]Point, []Label) {
	if len(ring) < 2 {
		return ring, labels
	}
	out, outL := ring[:0], labels[:0]
	for i, p := range ring {
		if len(out) > 0 && p.Equal(out[len(out)-1]) {
			if labels != nil {
				outL[len(outL)-1] = labels[i]
			}
			continue
		}
		out = append(out, p)
		if labels != nil {
			outL = append(outL, labels[i])
		}
	}
	for len(out) > 1 && out[0].Equal(out[len(out)-1]) {
		out = out[:len(out)-1]
		if labels != nil {
			outL = outL[:len(outL)-1]
		}
	}
	if labels == nil {
		return out, nil
	}
	return out, outL
}

// RingArea2 returns 2·(signed area) of the ring via the shoelace formula
// (zero for degenerate rings of fewer than 3 vertices). The clipper reads
// positive area from Cut's LeIn / GeIn bits instead; this is their oracle.
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
