package geometry

import "testing"

// FuzzSplit drives SplitLabelled on convex rings and half-planes decoded
// from raw bytes. Each side must be the reference clip's ring, point for
// point, and every edge of each side must lie on the line its label names:
// the ring's edges are labelled with their own edge lines and h's line with
// one more label.
//
// Byte 0 picks how h is drawn (its low two bits: free coefficients, a line
// through a ring vertex, a line through two ring vertices; bit 2 flips its
// side), bytes 1–3 are its parameters and the rest are the points, two
// signed bytes each, whose convex hull is the ring.
func FuzzSplit(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0xfe, 0, 0, 4, 0, 4, 4, 0, 4})                // square halved
	f.Add([]byte{1, 0, 1, 1, 0, 0, 6, 0, 6, 6, 0, 6})                   // through a corner
	f.Add([]byte{2, 0, 2, 0, 0, 0, 4, 0, 4, 4, 0, 4})                   // along a diagonal
	f.Add([]byte{6, 1, 2, 0, 0, 0, 4, 0, 4, 4, 0, 4})                   // along an edge, far side
	f.Add([]byte{0, 3, 0xf9, 0x0a, 2, 0, 4, 1, 4, 3, 2, 4, 0, 3, 0, 1}) // hexagon cut obliquely
	f.Add([]byte{0, 1, 0, 0x10, 0, 0, 4, 0, 4, 4})                      // nothing cut
	f.Add([]byte{0, 0, 0, 1, 0, 0, 4, 0, 4, 4})                         // trivial: nothing kept
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4+6 {
			return
		}
		var pts []Point
		for i := 4; i+1 < len(data) && len(pts) < 16; i += 2 {
			pts = append(pts, Pt(int64(int8(data[i])), int64(int8(data[i+1]))))
		}
		hull, err := ConvexHull(pts)
		if err != nil {
			return // collinear or too few points: no ring of positive area
		}
		ring := hull.Vertices()
		n := len(ring)
		a, b, c := int64(int8(data[1])), int64(int8(data[2])), int64(int8(data[3]))
		var h HalfPlane
		switch data[0] & 3 {
		case 1: // through ring vertex a, direction (b, c)
			h = lineThrough(ring[uint8(a)%uint8(n)], Pt(b, c))
		case 2: // through ring vertices a and b
			p, q := ring[uint8(a)%uint8(n)], ring[uint8(b)%uint8(n)]
			h = lineThrough(p, q.Sub(p))
		default:
			h = hp(a, b, c)
		}
		if data[0]&4 != 0 {
			h = negHalfPlane(h)
		}
		lines := append(EdgeHalfPlanes(hull), h)
		edges := make([]Label, n)
		for i := range edges {
			edges[i] = Label(i)
		}
		in := append([]Point(nil), ring...)
		cut := SplitLabelled(ring, edges, h, Label(n), Le|Ge)
		if !sameRing(ring, in) {
			t.Fatalf("SplitLabelled wrote to its input: %v, was %v", ring, in)
		}
		for _, side := range []struct {
			name  string
			got   []Point
			edges []Label
			want  []Point
		}{
			{"Le", cut.Le, cut.LeEdges, referenceClipRing(in, h)},
			{"Ge", cut.Ge, cut.GeEdges, referenceClipRing(in, negHalfPlane(h))},
		} {
			if !sameRing(side.got, side.want) {
				t.Fatalf("%s side of %v by %v: %v, reference %v", side.name, in, h, side.got, side.want)
			}
			if len(side.edges) != len(side.got) {
				t.Fatalf("%s side of %v by %v: %d labels for %d vertices", side.name, in, h, len(side.edges), len(side.got))
			}
			for i, l := range side.edges {
				p, q := side.got[i], side.got[(i+1)%len(side.got)]
				if line := lines[l]; line.Side(p) != 0 || line.Side(q) != 0 {
					t.Fatalf("%s side of %v by %v: edge %v–%v labelled %d, off its line %v", side.name, in, h, p, q, l, line)
				}
			}
		}
	})
}

// lineThrough is the half-plane whose boundary passes through p in
// direction d, interior on d's right.
func lineThrough(p, d Point) HalfPlane {
	return HalfPlane{A: d.Y, B: d.X.Neg(), C: d.X.Mul(p.Y).Sub(d.Y.Mul(p.X))}
}
