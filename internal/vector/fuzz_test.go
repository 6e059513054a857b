package vector

import (
	"encoding/binary"
	"testing"

	"cdb/internal/convert"
	"cdb/internal/geometry"
	"cdb/internal/rational"
)

// FuzzVectorRoundTrip drives the constraint → polygon → constraint cycle
// from raw vertex bytes: every simple polygon the input decodes to must
// convert to constraint tuples whose vector forms reproduce the exact
// geometry, and re-converting must reach a canonical fixpoint. Degenerate
// inputs (collinear rings, repeated points, needle slivers) must be
// rejected cleanly by NewPolygon or the eligibility probe, never
// mis-converted.
func FuzzVectorRoundTrip(f *testing.F) {
	// Seeds: a square, a triangle, a concave L-shape (triangulates), a
	// needle sliver and a collinear ring.
	f.Add([]byte{0, 0, 0, 0, 0, 10, 0, 0, 0, 10, 0, 10, 0, 0, 0, 10})
	f.Add([]byte{0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 8})
	f.Add([]byte{0, 0, 0, 0, 0, 8, 0, 0, 0, 8, 0, 4, 0, 4, 0, 4, 0, 4, 0, 8, 0, 0, 0, 8})
	f.Add([]byte{0, 0, 0, 0, 3, 232, 0, 1, 7, 208, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 4, 0, 4, 0, 8, 0, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode up to 10 int16 coordinate pairs.
		n := len(data) / 4
		if n < 3 {
			return
		}
		if n > 10 {
			n = 10
		}
		pts := make([]geometry.Point, n)
		for i := 0; i < n; i++ {
			x := int16(binary.BigEndian.Uint16(data[4*i:]))
			y := int16(binary.BigEndian.Uint16(data[4*i+2:]))
			pts[i] = geometry.Pt(int64(x), int64(y))
		}
		poly, err := geometry.NewPolygon(pts)
		if err != nil {
			return // not a simple polygon: rejection is the correct outcome
		}
		js, err := convert.PolygonToConjunctions(poly, "x", "y")
		if err != nil {
			return // ear clipping can reject near-degenerate rings
		}
		total, back := rational.Zero, rational.Zero
		for _, j := range js {
			jc := j.Canon()
			form := FormOf(jc)
			if form == nil {
				t.Fatalf("convex piece ineligible for the vector path: %s", jc)
			}
			total = total.Add(form.Poly.Area())
			// Round trip: polygon → constraints → polygon → constraints
			// must reach a fixpoint under Canon.
			j2, err := convert.ConvexPolygonToConjunction(form.Poly, "x", "y")
			if err != nil {
				t.Fatalf("form polygon not convex: %v", err)
			}
			j2c := j2.Canon()
			f2 := FormOf(j2c)
			if f2 == nil {
				t.Fatalf("round-tripped conjunction ineligible: %s", j2c)
			}
			back = back.Add(f2.Poly.Area())
			j3, err := convert.ConvexPolygonToConjunction(f2.Poly, "x", "y")
			if err != nil {
				t.Fatalf("second round trip not convex: %v", err)
			}
			if j2c.Key() != j3.Canon().Key() {
				t.Fatalf("no canonical fixpoint:\n %s\n %s", j2c.Key(), j3.Canon().Key())
			}
			// The piece's region must survive both directions exactly.
			if !PairSat(form, f2) {
				t.Fatal("piece disagrees with its own round trip: unsat")
			}
		}
		// Conservation of area: the triangulated pieces partition the
		// polygon, and the round trip preserves each piece exactly.
		if !total.Equal(poly.Area()) {
			t.Fatalf("piece areas sum to %s, polygon area %s", total, poly.Area())
		}
		if !back.Equal(poly.Area()) {
			t.Fatalf("round-trip areas sum to %s, polygon area %s", back, poly.Area())
		}
	})
}
