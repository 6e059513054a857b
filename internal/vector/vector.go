// Package vector is the vector-representation fast path of §6: it lets
// purely spatial constraint tuples *execute* as exact polygon geometry
// instead of through Fourier–Motzkin elimination.
//
// A conjunction is vector-eligible when it is a bounded, full-dimensional,
// closed region over exactly two variables — every atom a non-strict (Le)
// linear inequality mentioning at least one of them. For such a
// conjunction the region is a convex polygon, enumerated exactly by
// convert.ClosureVertices and cached on the canonical form via
// constraint.Memo (the same shared-box pattern as the envelope).
// Eligibility itself is decided geometrically — boundedness by a
// recession-cone test, satisfiability by the existence of feasible
// boundary intersections — so the probe makes zero FM decisions.
//
// On top of the exact polygon, every Form carries a float64 bounding box
// with outward-directed rounding: cheap float comparisons reject disjoint
// pairs soundly, exact rational clipping (Sutherland–Hodgman) confirms
// the rest — filter-and-refine one level below the envelope filter.
//
// The decision procedures (PairSat, Scope.Clip, Scope.Split, SatExtras)
// replace only *satisfiability decisions*. The constraint forms the
// operators emit are built exactly as on the FM path, so outputs stay
// byte-identical.
package vector

import (
	"math"

	"cdb/internal/constraint"
	"cdb/internal/convert"
	"cdb/internal/geometry"
	"cdb/internal/rational"
)

// Form is the cached vector form of a vector-eligible conjunction: the
// exact convex polygon of its region, the polygon's edge half-planes
// (ready for clipping), and a float64 bounding box rounded outward so
// that float disjointness implies exact disjointness.
type Form struct {
	XVar, YVar string // the two spatial variables, sorted
	Poly       geometry.Polygon
	halves     []geometry.HalfPlane

	// Outward-rounded float bounds: MinX <= exact minX, MaxX >= exact
	// maxX, likewise for Y. Never NaN.
	MinX, MinY, MaxX, MaxY float64
}

// FormOf returns the vector form of j, or nil when j is not
// vector-eligible. The result is memoized on j's canonical form; on
// non-canonical conjunctions it is computed uncached. FormOf never makes
// a Fourier–Motzkin decision.
func FormOf(j constraint.Conjunction) *Form {
	v := j.Memo(func() any { return computeForm(j) })
	f, _ := v.(*Form)
	return f
}

func computeForm(j constraint.Conjunction) *Form {
	cs := j.Constraints()
	if len(cs) < 3 {
		return nil // fewer than 3 half-planes cannot bound a 2-D region
	}
	// Every atom must be a closed half-plane over the same two variables:
	// Op Le with a non-zero normal. Strict or equality atoms make the region
	// non-closed or degenerate — the FM path handles those. The pairing
	// stage probes every tuple of every binary operator, so the rejects
	// come first and allocate nothing.
	var x, y string // the two variables, sorted once both are known
	for _, c := range cs {
		if c.Op != constraint.Le || c.Expr.IsConst() {
			return nil // strict, equality or constant (e.g. the False sentinel 0 < 0)
		}
		for _, t := range c.Expr.Terms() {
			switch {
			case t.Var == x || t.Var == y:
			case x == "":
				x = t.Var
			case y == "":
				y = t.Var
			default:
				return nil // a third variable
			}
		}
	}
	if y == "" {
		return nil // fewer than two variables
	}
	if y < x {
		x, y = y, x
	}
	normals := make([]geometry.Point, len(cs))
	for i, c := range cs {
		normals[i] = geometry.Point{X: c.Expr.Coef(x), Y: c.Expr.Coef(y)}
	}
	if unboundedDirection(normals) {
		return nil
	}
	// Bounded: the region, if non-empty, is the convex hull of the
	// feasible pairwise boundary intersections (every extreme point of a
	// bounded polyhedron is the intersection of two active constraint
	// boundaries). No feasible intersection means the closed region is
	// empty; fewer than 3 hull vertices means it is degenerate (a point or
	// segment). Both fall back to the FM path.
	verts := convert.ClosureVertices(j, x, y)
	if len(verts) < 3 {
		return nil
	}
	hull, err := geometry.ConvexHull(verts)
	if err != nil {
		return nil // collinear vertices: degenerate region
	}
	f := &Form{XVar: x, YVar: y, Poly: hull, halves: geometry.EdgeHalfPlanes(hull)}
	minX, minY, maxX, maxY := hull.BBox()
	f.MinX, f.MinY = floatDown(minX), floatDown(minY)
	f.MaxX, f.MaxY = floatUp(maxX), floatUp(maxY)
	return f
}

// unboundedDirection reports whether the recession cone
// {d : nᵢ·d <= 0 for all i} contains a non-zero direction — i.e. whether
// the region (if non-empty) is unbounded. In two dimensions the cone, if
// non-trivial, contains a boundary direction of some constraint (a cone
// that is a half-plane, a wedge or a single ray always has an extreme or
// boundary ray on some constraint line), so checking the two
// perpendiculars of every normal is complete.
func unboundedDirection(normals []geometry.Point) bool {
	inCone := func(d geometry.Point) bool {
		for _, m := range normals {
			if m.Dot(d).Sign() > 0 {
				return false
			}
		}
		return true
	}
	for _, n := range normals {
		if n.X.IsZero() && n.Y.IsZero() {
			continue
		}
		if inCone(geometry.Point{X: n.Y, Y: n.X.Neg()}) || inCone(geometry.Point{X: n.Y.Neg(), Y: n.X}) {
			return true
		}
	}
	return false
}

// floatDown returns a float64 at or below the exact rational; floatUp at
// or above. Rat.Float64 is within ~1.5 ulp of the exact value (nearest
// big.Rat conversion, or one int64-to-float division), so four directed
// ulp steps are a safely conservative outward bound.
func floatDown(r rational.Rat) float64 {
	f := r.Float64()
	for i := 0; i < 4; i++ {
		f = math.Nextafter(f, math.Inf(-1))
	}
	return f
}

func floatUp(r rational.Rat) float64 {
	f := r.Float64()
	for i := 0; i < 4; i++ {
		f = math.Nextafter(f, math.Inf(1))
	}
	return f
}

// PairSat decides satisfiability of f1 ∧ f2 — the refine step of the
// pairing operators — entirely in vector form. floatReject reports that
// the cheap float bounding-box filter already proved the pair disjoint
// (sound by the outward rounding; the exact clip never runs). Both forms
// must be over the same variable pair (callers check; it panics
// otherwise, as a wrong-pair answer would be silently unsound).
//
// Both regions are closed, so the decision is exact: the clipped ring is
// non-empty — even degenerate to a shared edge or corner — if and only if
// the conjunction is satisfiable.
func PairSat(f1, f2 *Form) (sat, floatReject bool) {
	if f1.XVar != f2.XVar || f1.YVar != f2.YVar {
		panic("vector: PairSat forms over different variable pairs")
	}
	if f1.MaxX < f2.MinX || f2.MaxX < f1.MinX || f1.MaxY < f2.MinY || f2.MaxY < f1.MinY {
		return false, true
	}
	ring := f1.Poly.Vertices()
	for _, h := range f2.halves {
		ring = geometry.ClipRing(ring, h)
		if len(ring) == 0 {
			return false, false
		}
	}
	return true, false
}

// Scope is a Form's region clipped by a sequence of extra atoms — select
// predicates, or the atoms the difference staircase accumulates on top of
// a tuple. It is a value: Clip returns the extended scope and leaves the
// receiver usable, so sibling staircase pieces fan out from one parent.
type Scope struct {
	form    *Form
	ring    []geometry.Point
	full    bool // the ring has positive area
	strict  bool // some atom was clipped by its closed relaxation
	foreign bool // some atom is beyond the clipper: nothing below is decidable
}

// Scope returns f's own region with no atom added.
func (f *Form) Scope() Scope {
	return Scope{form: f, ring: f.Poly.Vertices(), full: true}
}

// splitRing is geometry.Split; tests swap it to count ring passes.
var splitRing = geometry.Split

// Clip extends the scope by one atom and decides satisfiability of the
// form's conjunction with every atom clipped so far. ok=false means the
// atoms fall outside what the vector path can decide exactly — an extra
// variable, an unsupported operator (both final: every scope below is
// undecided too), or a strict atom whose truth depends on a degenerate
// (measure-zero) region — and the caller must fall back to FM; the child
// scope stays valid to extend, since a deeper atom can still empty the
// ring. A decided-unsatisfiable scope has nothing below it and must not be
// extended.
//
// Soundness: the clip runs on the *closed relaxation* of every atom
// (strict < relaxed to <=, equalities to a pair of opposing <=). An empty
// clip of the relaxation is exactly unsat. A full-dimensional clip
// (positive area) is sat even with strict atoms: the strict boundaries
// are finitely many lines, which cannot cover a region of positive area,
// so an interior point satisfying every strict atom strictly exists. Only
// a degenerate clip with strict atoms in play is undecided here.
// Constant atoms never reach the clip: trivially false decides unsat
// outright (the relaxation argument would be unsound for them — 0 < 0
// relaxes to 0 <= 0, which holds everywhere), trivially true ones leave
// the scope as it is.
//
// "Full-dimensional" is a bit carried from parent to child, never an
// area: a half-plane's child of a full-dimensional ring is
// full-dimensional exactly when some parent vertex lies strictly inside
// the half-plane (geometry.Cut), and an equality's child is flat.
func (s Scope) Clip(c constraint.Constraint) (child Scope, sat, ok bool) {
	if s.foreign {
		return s, false, false
	}
	if triv, val := c.IsTrivial(); triv {
		if !val {
			s.ring = nil
			return s, false, true
		}
		return s.verdict()
	}
	h, planar := convert.HalfPlaneOf(c, s.form.XVar, s.form.YVar)
	if !planar {
		s.foreign = true
		return s, false, false
	}
	switch c.Op {
	case constraint.Le, constraint.Lt:
		cut := splitRing(s.ring, h, geometry.Le)
		s.ring, s.full = cut.Le, s.full && cut.LeIn
		s.strict = s.strict || c.Op == constraint.Lt
	case constraint.Eq:
		// An equality is closed: clip by both opposing half-planes. The
		// result degenerates to (part of) a line, which the no-strict
		// degenerate rule still decides exactly.
		s.ring = splitRing(splitRing(s.ring, h, geometry.Le).Le, h, geometry.Ge).Ge
		s.full = false
	default:
		s.foreign = true
		return s, false, false
	}
	return s.verdict()
}

// verdict decides the scope's own conjunction, as Clip reports it.
func (s Scope) verdict() (Scope, bool, bool) {
	switch {
	case len(s.ring) == 0:
		return s, false, true
	case s.full:
		return s, true, true
	}
	// Degenerate ring. With no strict atoms every constraint is closed and
	// the non-empty ring is a witness; with strict atoms the witness may sit
	// exactly on a strict boundary — undecided here.
	return s, !s.strict, !s.strict
}

// Decision is one atom's outcome in Split: the child scope, and sat and ok
// as Clip reports them.
type Decision struct {
	Child   Scope
	Sat, OK bool
}

// Split decides an inequality atom c and its complement ¬c (the one atom
// of c.Complement()) against the scope in one pass over its ring: in is
// what Clip(c) returns and out what Clip(¬c) returns, ring for ring. A
// strict c is clipped by its closed relaxation h <= 0 and ¬c is the closed
// h >= 0; a closed c leaves ¬c, whose relaxation is h >= 0, strict. split
// is false when c is not such an atom — an equality (two complement
// atoms), a constant or an atom over a third variable — or the scope is
// already beyond the clipper: the caller then decides atom by atom with
// Clip.
func (s Scope) Split(c constraint.Constraint) (in, out Decision, split bool) {
	if s.foreign || (c.Op != constraint.Le && c.Op != constraint.Lt) || c.Expr.IsConst() {
		return in, out, false
	}
	h, planar := convert.HalfPlaneOf(c, s.form.XVar, s.form.YVar)
	if !planar {
		return in, out, false
	}
	cut := splitRing(s.ring, h, geometry.Le|geometry.Ge)
	strict := c.Op == constraint.Lt
	le, ge := s, s
	le.ring, le.full, le.strict = cut.Le, s.full && cut.LeIn, s.strict || strict
	ge.ring, ge.full, ge.strict = cut.Ge, s.full && cut.GeIn, s.strict || !strict
	in.Child, in.Sat, in.OK = le.verdict()
	out.Child, out.Sat, out.OK = ge.verdict()
	return in, out, true
}

// SatExtras decides satisfiability of f's conjunction extended with extra
// atoms by clipping them onto f's scope one at a time; sat and ok are
// Scope.Clip's for the whole list.
func SatExtras(f *Form, extras []constraint.Constraint) (sat, ok bool) {
	s := f.Scope()
	sat, ok = true, true // f itself: full-dimensional by construction
	for _, c := range extras {
		if s, sat, ok = s.Clip(c); ok && !sat {
			break
		}
	}
	return sat, ok
}
