package geometry

import (
	"fmt"

	"cdb/internal/rational"
)

// Segment is a closed line segment between two rational points.
type Segment struct {
	A, B Point
}

// Seg builds a segment from int64 coordinates.
func Seg(ax, ay, bx, by int64) Segment {
	return Segment{A: Pt(ax, ay), B: Pt(bx, by)}
}

func (s Segment) String() string {
	return fmt.Sprintf("%s-%s", s.A, s.B)
}

// onSegment reports whether collinear point p lies within s's bounding box.
func onSegment(s Segment, p Point) bool {
	return rational.Min(s.A.X, s.B.X).LessEq(p.X) && p.X.LessEq(rational.Max(s.A.X, s.B.X)) &&
		rational.Min(s.A.Y, s.B.Y).LessEq(p.Y) && p.Y.LessEq(rational.Max(s.A.Y, s.B.Y))
}

// Contains reports whether point p lies on the closed segment.
func (s Segment) Contains(p Point) bool {
	if Orientation(s.A, s.B, p) != 0 {
		return false
	}
	return onSegment(s, p)
}

// Intersects reports whether the two closed segments share a point
// (standard exact orientation-based test, handling all collinear cases).
func (s Segment) Intersects(o Segment) bool {
	o1 := Orientation(s.A, s.B, o.A)
	o2 := Orientation(s.A, s.B, o.B)
	o3 := Orientation(o.A, o.B, s.A)
	o4 := Orientation(o.A, o.B, s.B)
	if o1 != o2 && o3 != o4 {
		return true
	}
	if o1 == 0 && onSegment(s, o.A) {
		return true
	}
	if o2 == 0 && onSegment(s, o.B) {
		return true
	}
	if o3 == 0 && onSegment(o, s.A) {
		return true
	}
	if o4 == 0 && onSegment(o, s.B) {
		return true
	}
	return false
}

// SqDistToPoint returns the exact squared distance from p to the closed
// segment: project p onto the supporting line, clamp the parameter to
// [0,1], and measure to the clamped point. All steps are rational.
func (s Segment) SqDistToPoint(p Point) rational.Rat {
	d := s.B.Sub(s.A)
	len2 := d.Norm2()
	if len2.IsZero() {
		return p.SqDist(s.A)
	}
	t := p.Sub(s.A).Dot(d).Div(len2)
	if t.Sign() < 0 {
		t = rational.Zero
	} else if rational.One.Less(t) {
		t = rational.One
	}
	closest := s.A.Add(d.Scale(t))
	return p.SqDist(closest)
}

// SqDistToSegment returns the exact squared distance between two closed
// segments: zero when they intersect, otherwise the minimum over the four
// endpoint-to-segment distances.
func (s Segment) SqDistToSegment(o Segment) rational.Rat {
	if s.Intersects(o) {
		return rational.Zero
	}
	min := s.SqDistToPoint(o.A)
	for _, d := range []rational.Rat{
		s.SqDistToPoint(o.B),
		o.SqDistToPoint(s.A),
		o.SqDistToPoint(s.B),
	} {
		min = rational.Min(min, d)
	}
	return min
}

// Midpoint returns the midpoint of the segment.
func (s Segment) Midpoint() Point {
	return s.A.Add(s.B).Scale(rational.Half)
}
