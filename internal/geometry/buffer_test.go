package geometry

import (
	"math"
	"testing"

	"cdb/internal/rational"
)

// TestBufferAreaMonotoneInK: the inscribed polygonal disc's area grows
// with the vertex count and converges to πr² from below.
func TestBufferAreaMonotoneInK(t *testing.T) {
	r := rational.FromInt(7)
	center := Pt(100, 100)
	trueArea := math.Pi * 49
	prev := 0.0
	for _, k := range []int{8, 16, 32, 64} {
		p, err := BufferPoint(center, r, k)
		if err != nil {
			t.Fatal(err)
		}
		area, _ := p.Area().Float64()
		if area <= prev {
			t.Errorf("k=%d: area %g not larger than previous %g", k, area, prev)
		}
		if area >= trueArea {
			t.Errorf("k=%d: inscribed area %g exceeds disc area %g", k, area, trueArea)
		}
		prev = area
	}
	if trueArea-prev > trueArea*0.02 {
		t.Errorf("k=64 area %g not within 2%% of disc area %g", prev, trueArea)
	}
}

// TestBufferSegmentCoversDilatedSegment: every point of the segment, and
// points within r·cos(π/k)-ish of it, lie inside the buffer; points
// beyond r do not.
func TestBufferSegmentCoversDilatedSegment(t *testing.T) {
	s := Seg(0, 0, 20, 10)
	r := rational.FromInt(3)
	b, err := BufferSegment(s, r, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Sample points along the segment.
	for i := 0; i <= 10; i++ {
		tpar := rational.New(int64(i), 10)
		p := s.A.Add(s.B.Sub(s.A).Scale(tpar))
		if !b.Contains(p) {
			t.Errorf("segment point %s not covered", p)
		}
	}
	// The buffer stays within distance r of the segment (it is inscribed).
	for _, v := range b.Vertices() {
		d2 := s.SqDistToPoint(v)
		if d2.Cmp(r.Mul(r)) > 0 {
			t.Errorf("buffer vertex %s at sqdist %s > r²", v, d2)
		}
	}
}

// TestBufferPolylineJointCoverage: consecutive pieces of a polyline
// buffer overlap at the joints, so the union has no gaps there.
func TestBufferPolylineJointCoverage(t *testing.T) {
	l := MustPolyline(Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(20, 10))
	pieces, err := BufferPolyline(l, rational.FromInt(2), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != 3 {
		t.Fatalf("pieces = %d", len(pieces))
	}
	verts := l.Vertices()
	for i := 0; i+1 < len(pieces); i++ {
		joint := verts[i+1]
		if !pieces[i].Contains(joint) || !pieces[i+1].Contains(joint) {
			t.Errorf("joint %s not covered by both pieces %d and %d", joint, i, i+1)
		}
		if !pieces[i].Intersects(pieces[i+1]) {
			t.Errorf("pieces %d and %d do not overlap", i, i+1)
		}
	}
}
