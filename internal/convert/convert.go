// Package convert maps losslessly between the two finite representations
// the paper's §6 discusses for the CDB middle layer:
//
//   - the constraint representation: a spatial extent as a disjunction of
//     conjunctions of rational linear constraints (a set of constraint
//     tuples), and
//   - the vector (geometric) representation: vertex lists — polygons and
//     polylines.
//
// Going geometry → constraints: a convex polygon is one conjunction of
// half-plane constraints (one per edge); a concave polygon triangulates
// into a union of convex pieces; a polyline segment becomes the paper's
// three-constraint form (collinearity equation plus parameter bounds).
//
// Going constraints → geometry: the vertices of a bounded two-dimensional
// conjunction are enumerated exactly by intersecting constraint boundary
// lines pairwise and keeping the feasible intersections; the convex hull
// of those vertices is the region (conjunctions of linear constraints are
// convex). Both directions are exact: no coordinate is ever rounded.
package convert

import (
	"fmt"

	"cdb/internal/constraint"
	"cdb/internal/geometry"
	"cdb/internal/rational"
)

// halfPlane returns the constraint "p is on the left of a→b (inclusive)":
// cross(b-a, (x,y)-a) >= 0, which is linear in x and y.
func halfPlane(a, b geometry.Point, xVar, yVar string) constraint.Constraint {
	// cross = (b.X-a.X)*(y - a.Y) - (b.Y-a.Y)*(x - a.X) >= 0
	dx := b.X.Sub(a.X)
	dy := b.Y.Sub(a.Y)
	expr := constraint.NewExpr([]constraint.Term{
		{Var: yVar, Coef: dx},
		{Var: xVar, Coef: dy.Neg()},
	}, dy.Mul(a.X).Sub(dx.Mul(a.Y)))
	// expr >= 0  <=>  -expr <= 0
	return constraint.Constraint{Expr: expr.Neg(), Op: constraint.Le}
}

// ConvexPolygonToConjunction converts a convex polygon into a single
// conjunction of half-plane constraints over the two variables.
func ConvexPolygonToConjunction(p geometry.Polygon, xVar, yVar string) (constraint.Conjunction, error) {
	if !p.IsConvex() {
		return constraint.Conjunction{}, fmt.Errorf("convert: polygon is not convex; use PolygonToConjunctions")
	}
	verts := p.Vertices()
	cs := make([]constraint.Constraint, 0, len(verts))
	for i := range verts {
		cs = append(cs, halfPlane(verts[i], verts[(i+1)%len(verts)], xVar, yVar))
	}
	return constraint.And(cs...), nil
}

// PolygonToConjunctions converts any simple polygon into a union of convex
// constraint tuples (its triangulation) — §6's "union of convex polyhedra".
func PolygonToConjunctions(p geometry.Polygon, xVar, yVar string) ([]constraint.Conjunction, error) {
	if p.IsConvex() {
		j, err := ConvexPolygonToConjunction(p, xVar, yVar)
		if err != nil {
			return nil, err
		}
		return []constraint.Conjunction{j}, nil
	}
	tris, err := p.Triangulate()
	if err != nil {
		return nil, err
	}
	out := make([]constraint.Conjunction, 0, len(tris))
	for _, tr := range tris {
		j, err := ConvexPolygonToConjunction(tr, xVar, yVar)
		if err != nil {
			return nil, err
		}
		out = append(out, j)
	}
	return out, nil
}

// SegmentToConjunction converts a segment into the paper's constraint
// form for one piece of a linear feature: "one [constraint] for the line
// collinear with the segment, one for its starting point, and one for the
// ending point" — realised as the collinearity equation plus bounding-box
// bounds along both axes (two bounds are needed for axis-parallel
// segments).
func SegmentToConjunction(s geometry.Segment, xVar, yVar string) constraint.Conjunction {
	a, b := s.A, s.B
	dx := b.X.Sub(a.X)
	dy := b.Y.Sub(a.Y)
	// Collinearity: (x - a.X)*dy - (y - a.Y)*dx = 0.
	line := constraint.Constraint{
		Expr: constraint.NewExpr([]constraint.Term{
			{Var: xVar, Coef: dy},
			{Var: yVar, Coef: dx.Neg()},
		}, dx.Mul(a.Y).Sub(dy.Mul(a.X))),
		Op: constraint.Eq,
	}
	cs := []constraint.Constraint{line}
	cs = append(cs,
		constraint.GeConst(xVar, rational.Min(a.X, b.X)),
		constraint.LeConst(xVar, rational.Max(a.X, b.X)),
		constraint.GeConst(yVar, rational.Min(a.Y, b.Y)),
		constraint.LeConst(yVar, rational.Max(a.Y, b.Y)),
	)
	return constraint.And(cs...)
}

// PolylineToConjunctions converts a polyline into one constraint tuple per
// segment — the representation whose per-feature tuple count the paper's
// §6 redundancy discussion is about.
func PolylineToConjunctions(l geometry.Polyline, xVar, yVar string) []constraint.Conjunction {
	segs := l.Segments()
	out := make([]constraint.Conjunction, len(segs))
	for i, s := range segs {
		out[i] = SegmentToConjunction(s, xVar, yVar)
	}
	return out
}

// PointToConjunction converts a point into the equality-constraint tuple
// (x = px ∧ y = py) — the degenerate case showing relational tuples are
// constraint tuples over equality constraints.
func PointToConjunction(p geometry.Point, xVar, yVar string) constraint.Conjunction {
	return constraint.And(
		constraint.EqConst(xVar, p.X),
		constraint.EqConst(yVar, p.Y),
	)
}

// UnboundedError reports that a conjunction's region extends to infinity
// in variable Var, so it has no finite vertex representation. It is a
// typed error so callers probing for vector eligibility (the fast path's
// FormOf) can branch on it without string matching.
type UnboundedError struct {
	Var string
}

func (e *UnboundedError) Error() string {
	return fmt.Sprintf("convert: conjunction is unbounded in %s", e.Var)
}

// ConjunctionVertices enumerates the vertices of the closure of a
// two-dimensional conjunction over (xVar, yVar): all feasible pairwise
// intersections of constraint boundary lines. The conjunction must be
// bounded: unbounded regions (including half-open single-atom inputs like
// x <= 5, which earlier versions mis-converted into an empty vertex list)
// are rejected with an *UnboundedError.
func ConjunctionVertices(j constraint.Conjunction, xVar, yVar string) ([]geometry.Point, error) {
	for _, v := range j.Vars() {
		if v != xVar && v != yVar {
			return nil, fmt.Errorf("convert: conjunction mentions %q beyond (%s, %s)", v, xVar, yVar)
		}
	}
	if !j.IsSatisfiable() {
		return nil, fmt.Errorf("convert: conjunction is unsatisfiable")
	}
	for _, v := range []string{xVar, yVar} {
		iv, ok := j.VarBounds(v)
		if !ok || !iv.HasLower || !iv.HasUpper {
			return nil, &UnboundedError{Var: v}
		}
	}
	verts := ClosureVertices(j, xVar, yVar)
	if len(verts) == 0 {
		return nil, fmt.Errorf("convert: no vertices found (region not a bounded polytope?)")
	}
	return verts, nil
}

// HalfPlaneOf reads the expression of c as a·x + b·y + k over the two
// variables — the half-plane a·x + b·y + k <= 0 when c is a <= atom, its
// boundary line and closed relaxation otherwise. ok=false when c mentions
// any other variable.
func HalfPlaneOf(c constraint.Constraint, xVar, yVar string) (h geometry.HalfPlane, ok bool) {
	h = geometry.HalfPlane{A: rational.Zero, B: rational.Zero, C: c.Expr.ConstTerm()}
	for _, t := range c.Expr.Terms() {
		switch t.Var {
		case xVar:
			h.A = t.Coef
		case yVar:
			h.B = t.Coef
		default:
			return h, false
		}
	}
	return h, true
}

// ClosureVertices is the enumeration core of ConjunctionVertices without
// any of its Fourier–Motzkin guards: it intersects constraint boundary
// lines pairwise and keeps the points on the closure of the region (every
// strict constraint relaxed to its boundary). For a bounded satisfiable
// conjunction the convex hull of the result is exactly the closure of the
// region; for unbounded or unsatisfiable input the result is merely the
// feasible boundary intersections (possibly none) and the caller must
// establish boundedness itself. The vector fast path depends on this
// split: its eligibility probe decides boundedness geometrically
// (recession cone) and must make zero FM decisions.
func ClosureVertices(j constraint.Conjunction, xVar, yVar string) []geometry.Point {
	cs := j.Constraints()
	// Every atom's half-plane, read once: the loop below evaluates each at
	// every candidate point. An atom over any other variable has no value
	// at a point of the plane, so nothing is on the closure.
	halves := make([]geometry.HalfPlane, len(cs))
	for i, c := range cs {
		h, ok := HalfPlaneOf(c, xVar, yVar)
		if !ok {
			return nil
		}
		halves[i] = h
	}
	onClosure := func(p geometry.Point) bool {
		for i, h := range halves {
			v := h.Eval(p)
			// Closure: strict constraints relax to their boundary.
			if v.Sign() > 0 || (cs[i].Op == constraint.Eq && !v.IsZero()) {
				return false
			}
		}
		return true
	}
	// A region has few vertices, each met by a few boundary pairs: a scan
	// with Point.Equal is the cheapest exact set.
	seen := func(verts []geometry.Point, p geometry.Point) bool {
		for _, q := range verts {
			if p.Equal(q) {
				return true
			}
		}
		return false
	}
	var verts []geometry.Point
	for i := 0; i < len(cs); i++ {
		for k := i + 1; k < len(cs); k++ {
			p, ok := lineIntersection(cs[i], cs[k], xVar, yVar)
			if ok && onClosure(p) && !seen(verts, p) {
				verts = append(verts, p)
			}
		}
	}
	return verts
}

// lineIntersection solves the 2x2 system given by the boundary lines of
// two constraints. Returns ok=false for parallel or degenerate lines.
func lineIntersection(c1, c2 constraint.Constraint, xVar, yVar string) (geometry.Point, bool) {
	a1, b1 := c1.Expr.Coef(xVar), c1.Expr.Coef(yVar)
	a2, b2 := c2.Expr.Coef(xVar), c2.Expr.Coef(yVar)
	k1, k2 := c1.Expr.ConstTerm().Neg(), c2.Expr.ConstTerm().Neg()
	// a1 x + b1 y = k1 ; a2 x + b2 y = k2
	det := a1.Mul(b2).Sub(a2.Mul(b1))
	if det.IsZero() {
		return geometry.Point{}, false
	}
	x := k1.Mul(b2).Sub(k2.Mul(b1)).Div(det)
	y := a1.Mul(k2).Sub(a2.Mul(k1)).Div(det)
	return geometry.Point{X: x, Y: y}, true
}

// ConjunctionToPolygon reconstructs the polygon of a bounded full-
// dimensional conjunction (the §6 reverse conversion used when displaying
// constraint data). Degenerate regions (points, segments) are rejected —
// use ConjunctionVertices for those.
func ConjunctionToPolygon(j constraint.Conjunction, xVar, yVar string) (geometry.Polygon, error) {
	verts, err := ConjunctionVertices(j, xVar, yVar)
	if err != nil {
		return geometry.Polygon{}, err
	}
	hull, err := geometry.ConvexHull(verts)
	if err != nil {
		return geometry.Polygon{}, fmt.Errorf("convert: region is degenerate: %w", err)
	}
	return hull, nil
}

// ConjunctionToSegment reconstructs a segment from a one-dimensional
// (collinear, bounded) conjunction — the reverse of SegmentToConjunction.
func ConjunctionToSegment(j constraint.Conjunction, xVar, yVar string) (geometry.Segment, error) {
	verts, err := ConjunctionVertices(j, xVar, yVar)
	if err != nil {
		return geometry.Segment{}, err
	}
	if len(verts) < 2 {
		return geometry.Segment{}, fmt.Errorf("convert: region is a point, not a segment")
	}
	// The extreme pair: maximise pairwise squared distance.
	bi, bk := 0, 1
	best := verts[0].SqDist(verts[1])
	for i := 0; i < len(verts); i++ {
		for k := i + 1; k < len(verts); k++ {
			if d := verts[i].SqDist(verts[k]); best.Less(d) {
				bi, bk, best = i, k, d
			}
		}
	}
	for _, v := range verts {
		if geometry.Orientation(verts[bi], verts[bk], v) != 0 {
			return geometry.Segment{}, fmt.Errorf("convert: region is two-dimensional, not a segment")
		}
	}
	return geometry.Segment{A: verts[bi], B: verts[bk]}, nil
}
