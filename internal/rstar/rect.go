// Package rstar implements the R*-tree of Beckmann, Kriegel, Schneider and
// Seeger (SIGMOD 1990) — the index structure used by the paper's §5
// experiments — on top of the paged storage substrate, so that every node
// visit is a counted page access.
//
// The tree is dimension-generic: the experiments build 2-dimensional trees
// (joint index over two attributes) and 1-dimensional trees (separate index
// per attribute). Keys are axis-aligned rectangles: a relational attribute
// value is a degenerate interval, a constraint attribute's range is a
// proper interval, so both attribute kinds index uniformly — exactly the
// observation the paper builds on.
package rstar

import (
	"fmt"
	"math"
	"strings"
)

// Rect is an axis-aligned rectangle in dim dimensions: Min[i] <= Max[i].
//
// The index layer works in float64: it is a conservative filter in front of
// the exact constraint layer (bounding boxes computed from exact rational
// bounds are out-rounded), so float rounding can only cost a false
// positive, never a lost result.
type Rect struct {
	Min, Max []float64
}

// NewRect validates and builds a rectangle.
func NewRect(min, max []float64) (Rect, error) {
	if len(min) != len(max) {
		return Rect{}, fmt.Errorf("rstar: dim mismatch %d vs %d", len(min), len(max))
	}
	if len(min) == 0 {
		return Rect{}, fmt.Errorf("rstar: zero-dimensional rect")
	}
	for i := range min {
		if math.IsNaN(min[i]) || math.IsNaN(max[i]) {
			return Rect{}, fmt.Errorf("rstar: NaN coordinate")
		}
		if min[i] > max[i] {
			return Rect{}, fmt.Errorf("rstar: min > max in dimension %d", i)
		}
	}
	return Rect{Min: append([]float64{}, min...), Max: append([]float64{}, max...)}, nil
}

// MustRect is like NewRect but panics on error (fixture helper).
func MustRect(min, max []float64) Rect {
	r, err := NewRect(min, max)
	if err != nil {
		panic(err)
	}
	return r
}

// Rect1 returns the 1-D interval [lo, hi].
func Rect1(lo, hi float64) Rect { return MustRect([]float64{lo}, []float64{hi}) }

// Rect2 returns the 2-D box [x0,x1]×[y0,y1].
func Rect2(x0, y0, x1, y1 float64) Rect {
	return MustRect([]float64{x0, y0}, []float64{x1, y1})
}

// Dim returns the dimensionality.
func (r Rect) Dim() int { return len(r.Min) }

// Area returns the volume (area in 2-D, length in 1-D).
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Min {
		a *= r.Max[i] - r.Min[i]
	}
	return a
}

// Margin returns the summed edge lengths (the R* margin measure).
func (r Rect) Margin() float64 {
	m := 0.0
	for i := range r.Min {
		m += r.Max[i] - r.Min[i]
	}
	return m
}

// Union returns the smallest rectangle covering both.
func (r Rect) Union(o Rect) Rect {
	min := make([]float64, len(r.Min))
	max := make([]float64, len(r.Min))
	for i := range r.Min {
		min[i] = math.Min(r.Min[i], o.Min[i])
		max[i] = math.Max(r.Max[i], o.Max[i])
	}
	return Rect{Min: min, Max: max}
}

// Intersects reports whether the closed rectangles overlap.
func (r Rect) Intersects(o Rect) bool {
	for i := range r.Min {
		if r.Max[i] < o.Min[i] || o.Max[i] < r.Min[i] {
			return false
		}
	}
	return true
}

// OverlapArea returns the volume of the intersection (0 when disjoint).
func (r Rect) OverlapArea(o Rect) float64 {
	a := 1.0
	for i := range r.Min {
		lo := math.Max(r.Min[i], o.Min[i])
		hi := math.Min(r.Max[i], o.Max[i])
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// Enlargement returns the area growth needed to include o.
func (r Rect) Enlargement(o Rect) float64 {
	return r.Union(o).Area() - r.Area()
}

// Center returns the rectangle's center point.
func (r Rect) Center() []float64 {
	c := make([]float64, len(r.Min))
	for i := range r.Min {
		c[i] = (r.Min[i] + r.Max[i]) / 2
	}
	return c
}

// Project returns the 1-D rectangle of dimension i.
func (r Rect) Project(i int) Rect {
	return Rect{Min: []float64{r.Min[i]}, Max: []float64{r.Max[i]}}
}

func (r Rect) String() string {
	parts := make([]string, len(r.Min))
	for i := range r.Min {
		parts[i] = fmt.Sprintf("[%g,%g]", r.Min[i], r.Max[i])
	}
	return strings.Join(parts, "x")
}
