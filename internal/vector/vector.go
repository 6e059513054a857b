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
// A Form carries no float box of its own. The pairs it is asked about have
// passed the filter stage's float-keyed envelope check (package cqa), and
// a planar tuple's envelope bounds each variable by its exact range where
// interval propagation leaves it one-sided (constraint.Envelope), so every
// pair goes straight to exact rational clipping (Sutherland–Hodgman).
//
// The decision procedures (PairSat, Scope.Clip, Scope.Split, SatExtras)
// replace only *satisfiability decisions*. The constraint forms the
// operators emit are built exactly as on the FM path, and Scope.Irredundant,
// which reads a difference piece's irredundant atoms off its labelled ring,
// returns what the planar redundancy rule returns, so outputs stay
// byte-identical.
package vector

import (
	"sync"

	"cdb/internal/constraint"
	"cdb/internal/convert"
	"cdb/internal/geometry"
)

// Form is the cached vector form of a vector-eligible conjunction: the
// exact convex polygon of its region and the polygon's edge half-planes,
// ready for clipping.
type Form struct {
	XVar, YVar string // the two spatial variables, sorted
	Poly       geometry.Polygon
	halves     []geometry.HalfPlane

	// atoms are the conjunction's atoms the form was computed from. hull
	// names, once a labelled scope has asked, the line of each edge of Poly
	// by the atom (canonical) that carries it, and hullEdges labels the
	// edges 0…n-1 with them (see LabelledScope).
	atoms     []constraint.Constraint
	labelOnce sync.Once
	hull      []constraint.Constraint
	hullEdges []geometry.Label
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
	return &Form{XVar: x, YVar: y, Poly: hull, halves: geometry.EdgeHalfPlanes(hull), atoms: cs}
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

// PairSat decides satisfiability of f1 ∧ f2 — the refine step of the
// pairing operators — entirely in vector form. Both forms must be over the
// same variable pair (callers check; it panics otherwise, as a wrong-pair
// answer would be silently unsound).
//
// Both regions are closed, so the decision is exact: the clipped ring is
// non-empty — even degenerate to a shared edge or corner — if and only if
// the conjunction is satisfiable.
func PairSat(f1, f2 *Form) bool {
	if f1.XVar != f2.XVar || f1.YVar != f2.YVar {
		panic("vector: PairSat forms over different variable pairs")
	}
	ring := f1.Poly.Vertices()
	for _, h := range f2.halves {
		ring = geometry.ClipRing(ring, h)
		if len(ring) == 0 {
			return false
		}
	}
	return true
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

	// On a labelled scope (LabelledScope) that is full-dimensional, edges[i]
	// names the line of the ring's edge from ring[i] to ring[i+1] as an
	// index into lines; nil otherwise.
	edges []geometry.Label
	lines *lineTable
}

// lineTable is what the labels of one labelled scope family name: the
// form's hull atoms first, then every atom a Split or Clip of the family
// cut a full-dimensional ring in two by, canonical. It is append-only, so a
// label once given stays valid in every scope that holds it.
type lineTable struct {
	hull []constraint.Constraint // labels 0…len(hull)-1, the form's, shared
	cut  []constraint.Constraint // the labels after them
	buf  [8]constraint.Constraint
}

// next is the label the next add returns.
func (t *lineTable) next() geometry.Label {
	return geometry.Label(len(t.hull) + len(t.cut))
}

// add appends the line c names, under the label next returned.
func (t *lineTable) add(c constraint.Constraint) {
	if t.cut == nil {
		t.cut = t.buf[:0]
	}
	t.cut = append(t.cut, c.Canonical())
}

// atom is the atom label l names.
func (t *lineTable) atom(l geometry.Label) constraint.Constraint {
	if int(l) < len(t.hull) {
		return t.hull[l]
	}
	return t.cut[int(l)-len(t.hull)]
}

// Scope returns f's own region with no atom added.
func (f *Form) Scope() Scope {
	return Scope{form: f, ring: f.Poly.Vertices(), full: true}
}

// LabelledScope is Scope with the ring's edges labelled by the atoms whose
// lines carry them: a hull edge by the atom of f's conjunction on its line,
// an edge a later Split or Clip cuts along by the atom it cut with. The
// difference staircase runs on it, so that each piece's irredundant atoms
// can be read off its final ring (Irredundant); the matching of hull edges
// to atoms is done once per form. The scopes of one family share their
// table of lines, so a family belongs to one goroutine.
func (f *Form) LabelledScope() Scope {
	s := f.Scope()
	if hull := f.hullLines(); hull != nil {
		s.edges = f.hullEdges
		s.lines = &lineTable{hull: hull}
	}
	return s
}

// hullLines matches each edge of f's polygon to the atom of f's
// conjunction whose boundary line passes through both of its ends, once.
// It is nil if some edge has none, which a form's own hull cannot have.
func (f *Form) hullLines() []constraint.Constraint {
	f.labelOnce.Do(func() {
		vs := f.Poly.Vertices()
		hull := make([]constraint.Constraint, len(vs))
		edges := make([]geometry.Label, len(vs))
		for i := range vs {
			p, q := vs[i], vs[(i+1)%len(vs)]
			found := false
			for _, a := range f.atoms {
				if h, _ := convert.HalfPlaneOf(a, f.XVar, f.YVar); h.Side(p) == 0 && h.Side(q) == 0 {
					hull[i], edges[i], found = a.Canonical(), geometry.Label(i), true
					break
				}
			}
			if !found {
				return
			}
		}
		f.hull, f.hullEdges = hull, edges
	})
	return f.hull
}

// splitRing is geometry.SplitLabelled; tests swap it to count ring passes.
var splitRing = geometry.SplitLabelled

// split cuts the scope's ring along h, the half-plane of c, labelling the
// sides' edges when the scope's are. c's line enters the table only when
// it cut the ring into two full-dimensional sides: a side that keeps a
// closing edge along h is otherwise flat and drops its labels (side).
func (s Scope) split(c constraint.Constraint, h geometry.HalfPlane, build geometry.Sides) geometry.Cut {
	if s.edges == nil {
		return splitRing(s.ring, nil, h, 0, build)
	}
	cut := splitRing(s.ring, s.edges, h, s.lines.next(), build)
	if cut.LeIn && cut.GeIn {
		s.lines.add(c)
	}
	return cut
}

// side is s with its ring cut down to one side of a split: full while the
// side keeps a vertex strictly inside, and labelled only while full.
func (s Scope) side(ring []geometry.Point, edges []geometry.Label, in, strict bool) Scope {
	s.ring, s.full, s.strict = ring, s.full && in, s.strict || strict
	if s.full {
		s.edges = edges
	} else {
		s.edges = nil
	}
	return s
}

// Irredundant returns the conjunction of piece — a staircase chain whose
// region's closure is the scope's ring — as the planar rule of
// constraint.Conjunction.SimplifyWith leaves it, with the atoms that carry
// an edge read off the ring's labels (constraint.Chain.IrredundantOnEdges).
// ok is false when the ring cannot say: the scope is unlabelled, not
// full-dimensional, or beyond the clipper.
func (s Scope) Irredundant(piece *constraint.Chain) (_ constraint.Conjunction, ok bool) {
	if s.edges == nil || s.foreign {
		return constraint.Conjunction{}, false
	}
	var buf [16]constraint.Constraint
	lines := buf[:0]
	for _, l := range s.edges {
		lines = append(lines, s.lines.atom(l))
	}
	return piece.IrredundantOnEdges(lines)
}

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
			s.ring, s.edges = nil, nil
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
		cut := s.split(c, h, geometry.Le)
		s = s.side(cut.Le, cut.LeEdges, cut.LeIn, c.Op == constraint.Lt)
	case constraint.Eq:
		// An equality is closed: clip by both opposing half-planes. The
		// result degenerates to (part of) a line, which the no-strict
		// degenerate rule still decides exactly.
		s.ring = splitRing(splitRing(s.ring, nil, h, 0, geometry.Le).Le, nil, h, 0, geometry.Ge).Ge
		s.full, s.edges = false, nil
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
	cut := s.split(c, h, geometry.Le|geometry.Ge)
	strict := c.Op == constraint.Lt
	in.Child, in.Sat, in.OK = s.side(cut.Le, cut.LeEdges, cut.LeIn, strict).verdict()
	out.Child, out.Sat, out.OK = s.side(cut.Ge, cut.GeEdges, cut.GeIn, !strict).verdict()
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
