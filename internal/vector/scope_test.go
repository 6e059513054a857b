package vector

import (
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/convert"
	"cdb/internal/datagen"
	"cdb/internal/geometry"
	"cdb/internal/relation"
)

// referenceSatExtras is the body SatExtras had while every decision
// clipped the form's polygon through the whole list of extras from
// scratch. Kept verbatim as the oracle for the incremental Scope.
func referenceSatExtras(f *Form, extras []constraint.Constraint) (sat, ok bool) {
	ring := f.Poly.Vertices()
	strict := false
	for _, c := range extras {
		if triv, val := c.IsTrivial(); triv {
			if !val {
				return false, true
			}
			continue
		}
		a, b := c.Expr.Coef(f.XVar), c.Expr.Coef(f.YVar)
		for _, v := range c.Expr.Vars() {
			if v != f.XVar && v != f.YVar {
				return false, false
			}
		}
		k := c.Expr.ConstTerm()
		h := geometry.HalfPlane{A: a, B: b, C: k}
		switch c.Op {
		case constraint.Le:
			ring = geometry.ClipRing(ring, h)
		case constraint.Lt:
			strict = true
			ring = geometry.ClipRing(ring, h)
		case constraint.Eq:
			// An equality is closed: clip by both opposing half-planes. The
			// result degenerates to (part of) a line, which the no-strict
			// degenerate rule below still decides exactly.
			ring = geometry.ClipRing(ring, h)
			if len(ring) != 0 {
				ring = geometry.ClipRing(ring, geometry.HalfPlane{A: a.Neg(), B: b.Neg(), C: k.Neg()})
			}
		default:
			return false, false
		}
		if len(ring) == 0 {
			return false, true
		}
	}
	if !geometry.RingArea2(ring).IsZero() {
		return true, true
	}
	// Degenerate result. With no strict atoms every constraint is closed
	// and the non-empty ring is a witness; with strict atoms the witness
	// may sit exactly on a strict boundary — undecided here.
	if strict {
		return false, false
	}
	return true, true
}

// stairTally counts what a checked staircase met.
type stairTally struct {
	steps, split, sat, unsat, undecided, foreign, trivial int
	labelled, read                                        int // full scopes whose labels were checked; pieces read off a ring
}

// sameScope reports whether two scopes hold the same ring, point for
// point, and the same flags.
func sameScope(a, b Scope) bool {
	if len(a.ring) != len(b.ring) || a.full != b.full || a.strict != b.strict || a.foreign != b.foreign {
		return false
	}
	for i := range a.ring {
		if !a.ring[i].Equal(b.ring[i]) {
			return false
		}
	}
	return true
}

// checkedStaircase runs base − ks through SubtractAllScoped on f's
// labelled scope, exactly as the difference operator does — an atom and its
// complement split together where Split takes them, clipped one at a time
// where it does not — and at every step compares the incremental verdict
// with referenceSatExtras on the whole list of atoms accumulated so far,
// the full-dimensional bit with the ring's area, and a split with the two
// clips it stands for; at every full scope it checks the edge labels
// (checkedLabels). The emitted disjuncts must be SubtractAll's, whose every
// step runs Fourier–Motzkin, and each piece read off its ring must be what
// the planar rule leaves of it.
func checkedStaircase(t *testing.T, f *Form, base constraint.Conjunction, ks []constraint.Conjunction, tally *stairTally) {
	t.Helper()
	type state struct {
		scope  Scope
		extras []constraint.Constraint
	}
	check := func(parent state, prefix *constraint.Chain, atom constraint.Constraint, child Scope, sat, ok bool) constraint.Verdict[state] {
		extras := append(parent.extras[:len(parent.extras):len(parent.extras)], atom)
		wantSat, wantOK := referenceSatExtras(f, extras)
		if sat != wantSat || ok != wantOK {
			t.Fatalf("step %d: Clip = (%v, %v), from scratch (%v, %v)\n base: %s\n extras: %v", tally.steps, sat, ok, wantSat, wantOK, base, extras)
		}
		if foldSat, foldOK := SatExtras(f, extras); foldSat != wantSat || foldOK != wantOK {
			t.Fatalf("step %d: SatExtras = (%v, %v), from scratch (%v, %v)\n base: %s\n extras: %v", tally.steps, foldSat, foldOK, wantSat, wantOK, base, extras)
		}
		if len(child.ring) != 0 && child.full == geometry.RingArea2(child.ring).IsZero() {
			t.Fatalf("step %d: full-dimensional bit %v on a ring of area·2 %s\n base: %s\n extras: %v", tally.steps, child.full, geometry.RingArea2(child.ring), base, extras)
		}
		if len(child.ring) != 0 && child.full && !child.foreign {
			checkedLabels(t, child, prefix.Con().With(atom).Canon(), tally)
		}
		tally.steps++
		if triv, _ := atom.IsTrivial(); triv {
			tally.trivial++
		}
		switch {
		case !ok && child.foreign:
			tally.foreign++
		case !ok:
			tally.undecided++
		case sat:
			tally.sat++
		default:
			tally.unsat++
		}
		if !ok {
			sat = prefix.Con().With(atom).IsSatisfiable()
		}
		return constraint.Verdict[state]{Scope: state{scope: child, extras: extras}, Sat: sat}
	}
	got := constraint.SubtractAllScoped(base, ks, state{scope: f.LabelledScope()},
		func(parent state, prefix *constraint.Chain, c constraint.Constraint, negs []constraint.Constraint) (neg [2]constraint.Verdict[state], pos constraint.Verdict[state]) {
			if in, out, split := parent.scope.Split(c); split {
				tally.split++
				for _, d := range []struct {
					atom constraint.Constraint
					dec  Decision
				}{{negs[0], out}, {c, in}} {
					child, sat, ok := parent.scope.Clip(d.atom)
					if !sameScope(child, d.dec.Child) || sat != d.dec.Sat || ok != d.dec.OK {
						t.Fatalf("step %d: Split on %s is not Clip(%s)\n base: %s", tally.steps, c, d.atom, base)
					}
				}
				neg[0] = check(parent, prefix, negs[0], out.Child, out.Sat, out.OK)
				pos = check(parent, prefix, c, in.Child, in.Sat, in.OK)
				return neg, pos
			}
			for i, a := range negs {
				child, sat, ok := parent.scope.Clip(a)
				neg[i] = check(parent, prefix, a, child, sat, ok)
			}
			child, sat, ok := parent.scope.Clip(c)
			return neg, check(parent, prefix, c, child, sat, ok)
		})
	want := constraint.SubtractAll(base, ks)
	if len(got) != len(want) {
		t.Fatalf("%d disjuncts, SubtractAll gives %d\n base: %s", len(got), len(want), base)
	}
	for i := range want {
		red, ok := got[i].Scope.scope.Irredundant(got[i].Chain)
		con := got[i].Chain.Con()
		if con.Key() != want[i].Key() {
			t.Fatalf("disjunct %d: %q, SubtractAll gives %q", i, con.Key(), want[i].Key())
		}
		if ok {
			tally.read++
			if rule := con.SimplifyPlanar(); red.String() != rule.String() {
				t.Fatalf("disjunct %d: read off the ring %s, the planar rule leaves %s", i, red, rule)
			}
		}
	}
}

// checkedLabels checks a full-dimensional scope's edge labels against j,
// the canonical conjunction whose closure is its ring: every edge lies on
// the line its label names, and the atoms on a labelled line are exactly
// those the planar rule classifies as carrying an edge (clipBoundary, via
// PlanarEdges).
func checkedLabels(t *testing.T, s Scope, j constraint.Conjunction, tally *stairTally) {
	t.Helper()
	if len(s.edges) != len(s.ring) {
		t.Fatalf("%d labels on a ring of %d vertices\n conjunction: %s", len(s.edges), len(s.ring), j)
	}
	x, y := s.form.XVar, s.form.YVar
	for i, l := range s.edges {
		h, _ := convert.HalfPlaneOf(s.lines.atom(l), x, y)
		if p, q := s.ring[i], s.ring[(i+1)%len(s.ring)]; h.Side(p) != 0 || h.Side(q) != 0 {
			t.Fatalf("edge %v–%v labelled %s, off its line\n conjunction: %s", p, q, s.lines.atom(l), j)
		}
	}
	onEdge, ok := j.PlanarEdges()
	if !ok {
		t.Fatalf("the planar rule does not decide a full-dimensional scope's conjunction %s", j)
	}
	for i, c := range j.Constraints() {
		labelled := false
		for _, l := range s.edges {
			labelled = labelled || sameLine(c, s.lines.atom(l), x, y)
		}
		if labelled != onEdge[i] {
			t.Fatalf("atom %s: on a labelled edge %v, carries an edge by clipBoundary %v\n conjunction: %s", c, labelled, onEdge[i], j)
		}
	}
	tally.labelled++
}

// sameLine reports whether two atoms over x, y have one boundary line: the
// coefficient vectors of their half-planes are parallel.
func sameLine(a, b constraint.Constraint, x, y string) bool {
	g, _ := convert.HalfPlaneOf(a, x, y)
	h, _ := convert.HalfPlaneOf(b, x, y)
	return g.A.Mul(h.B).Equal(g.B.Mul(h.A)) && g.A.Mul(h.C).Equal(g.C.Mul(h.A)) && g.B.Mul(h.C).Equal(g.C.Mul(h.B))
}

// overlapping returns, for each tuple of r1 with a vector form, the
// subtrahends the difference operator would hand the staircase: r2's
// regions that meet it, in input order.
func overlapping(r1, r2 *relation.Relation, visit func(f *Form, base constraint.Conjunction, ks []constraint.Conjunction)) {
	for _, t1 := range r1.Tuples() {
		base := t1.Constraint().Canon()
		f := FormOf(base)
		if f == nil {
			continue
		}
		var ks []constraint.Conjunction
		for _, t2 := range r2.Tuples() {
			k := t2.Constraint().Canon()
			if f2 := FormOf(k); f2 != nil {
				if sat, _ := PairSat(f, f2); sat {
					ks = append(ks, k)
				}
			}
		}
		if len(ks) > 0 {
			visit(f, base, ks)
		}
	}
}

// TestScopeMatchesFromScratchOnStaircase: at every step of the difference
// staircase over the three generated shapes, the incremental scope gives
// the verdict and ok the from-scratch clip of all accumulated atoms gives,
// and the staircase emits SubtractAll's disjuncts.
func TestScopeMatchesFromScratchOnStaircase(t *testing.T) {
	p1 := datagen.Paper()
	p1.Seed = 1801
	p2 := p1
	p2.Seed = 1802
	boxes := p1
	boxes.SizeMin = 50 // dense enough that boxes meet
	boxes2 := boxes
	boxes2.Seed = 1803
	for _, c := range []struct {
		name   string
		r1, r2 *relation.Relation
	}{
		{"PolygonRelation", datagen.PolygonRelation(p1, 10, 1, 60, 5), datagen.PolygonRelation(p2, 10, 1, 60, 5)},
		{"ConcavePolygonRelation", datagen.ConcavePolygonRelation(p1, 12, 1, 60, 5), datagen.ConcavePolygonRelation(p2, 12, 1, 60, 5)},
		{"ClusteredBoxRelation", datagen.ClusteredBoxRelation(boxes, 12, 1, 10, 5), datagen.ClusteredBoxRelation(boxes2, 12, 1, 10, 5)},
	} {
		t.Run(c.name, func(t *testing.T) {
			var tally stairTally
			overlapping(c.r1, c.r2, func(f *Form, base constraint.Conjunction, ks []constraint.Conjunction) {
				checkedStaircase(t, f, base, ks, &tally)
			})
			if tally.steps < 100 || tally.split == 0 || tally.sat == 0 || tally.unsat == 0 || tally.labelled < 50 || tally.read == 0 {
				t.Fatalf("vacuous run: %+v", tally)
			}
		})
	}
}

// TestScopeUndecidedCases walks staircases built to reach the three ways a
// step is not a plain clip: a strict atom on a region the closed atoms
// already cut to measure zero (undecided, FM decides, and a deeper atom
// may still empty the ring), an atom over a third variable (undecided for
// every scope below it), and constant atoms (true leaves the scope alone,
// false decides unsat).
func TestScopeUndecidedCases(t *testing.T) {
	base := boxConj(0, 0, 4, 4).Canon()
	f := FormOf(base)
	var tally stairTally
	// Neighbours sharing an edge and a corner with base: the prefix cuts the
	// ring to a segment or a point before the strict negations arrive.
	checkedStaircase(t, f, base, []constraint.Conjunction{
		boxConj(4, 0, 6, 4), boxConj(4, 4, 6, 6), boxConj(1, 1, 4, 2),
	}, &tally)
	if tally.undecided == 0 {
		t.Fatalf("no strict-degenerate step reached: %+v", tally)
	}
	// A third variable in the middle of a subtrahend, then another
	// subtrahend on the pieces that inherited it.
	checkedStaircase(t, f, base, []constraint.Conjunction{
		constraint.And(constraint.GeConst("x", q(1)), constraint.LeConst("z", q(1)), constraint.LeConst("x", q(3))),
		boxConj(2, 2, 3, 3),
	}, &tally)
	if tally.foreign < 3 {
		t.Fatalf("third-variable atom did not reach the scopes below it: %+v", tally)
	}
	// A constant atom in a subtrahend, 0 < 0 (And keeps a false one): its
	// negation 0 <= 0 leaves the scope alone and answers for the parent,
	// the prefix step decides unsat — also right behind a third-variable
	// atom, which wins.
	falseAtom := constraint.Constraint{Expr: constraint.ConstInt(0), Op: constraint.Lt}
	before := tally.trivial
	checkedStaircase(t, f, base, []constraint.Conjunction{
		constraint.And(constraint.GeConst("y", q(2)), falseAtom, constraint.LeConst("y", q(3))),
		constraint.And(constraint.LeConst("z", q(1)), falseAtom),
	}, &tally)
	if tally.trivial-before < 4 {
		t.Fatalf("constant atoms not reached: %+v", tally)
	}
}

// TestStaircaseOnePassPerAtom: with the scope carried from parent to child
// and a subtrahend atom split together with its complement, the staircase
// makes one pass over a ring per subtrahend atom it walks, whatever the
// depth (the from-scratch decision clipped once per accumulated atom, and
// the atom-by-atom one once per atom and once per negation), and still
// returns one verdict per decision.
func TestStaircaseOnePassPerAtom(t *testing.T) {
	passes := 0
	splitRing = func(ring []geometry.Point, edges []geometry.Label, h geometry.HalfPlane, hl geometry.Label, build geometry.Sides) geometry.Cut {
		passes++
		return geometry.SplitLabelled(ring, edges, h, hl, build)
	}
	defer func() { splitRing = geometry.SplitLabelled }()
	p1 := datagen.Paper()
	p1.Seed = 1811
	p2 := p1
	p2.Seed = 1812
	walked, decisions, verdicts, deepest := 0, 0, 0, 0
	type state struct {
		scope Scope
		depth int
	}
	child := func(parent state, prefix *constraint.Chain, atom constraint.Constraint, d Decision) constraint.Verdict[state] {
		verdicts++
		if parent.depth+1 > deepest {
			deepest = parent.depth + 1
		}
		if !d.OK { // strict atom on a touching corner: still the one pass
			d.Sat = prefix.Con().With(atom).IsSatisfiable()
		}
		return constraint.Verdict[state]{Scope: state{scope: d.Child, depth: parent.depth + 1}, Sat: d.Sat}
	}
	overlapping(datagen.PolygonRelation(p1, 8, 1, 60, 9), datagen.PolygonRelation(p2, 8, 1, 60, 9),
		func(f *Form, base constraint.Conjunction, ks []constraint.Conjunction) {
			passes = 0
			before := walked
			constraint.SubtractAllScoped(base, ks, state{scope: f.Scope()},
				func(parent state, prefix *constraint.Chain, c constraint.Constraint, negs []constraint.Constraint) (neg [2]constraint.Verdict[state], pos constraint.Verdict[state]) {
					walked++
					decisions += len(negs) + 1
					in, out, split := parent.scope.Split(c)
					if !split {
						t.Fatalf("polygon atom %s not split", c)
					}
					neg[0] = child(parent, prefix, negs[0], out)
					return neg, child(parent, prefix, c, in)
				})
			if passes != walked-before {
				t.Fatalf("%d ring passes for %d subtrahend atoms", passes, walked-before)
			}
		})
	if verdicts != decisions {
		t.Fatalf("%d verdicts for %d decisions", verdicts, decisions)
	}
	if walked < 100 || deepest < 8 {
		t.Fatalf("fixture too thin: %d subtrahend atoms, deepest scope %d atoms", walked, deepest)
	}
}
