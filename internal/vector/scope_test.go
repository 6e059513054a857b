package vector

import (
	"testing"

	"cdb/internal/constraint"
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
	steps, sat, unsat, undecided, foreign, trivial int
}

// checkedStaircase runs base − ks through SubtractAllScoped on f's scope,
// exactly as the difference operator does, and at every step compares the
// incremental verdict with referenceSatExtras on the whole list of atoms
// accumulated so far. The emitted disjuncts must be SubtractAll's, whose
// every step runs Fourier–Motzkin.
func checkedStaircase(t *testing.T, f *Form, base constraint.Conjunction, ks []constraint.Conjunction, tally *stairTally) {
	t.Helper()
	type state struct {
		scope  Scope
		extras []constraint.Constraint
	}
	got := constraint.SubtractAllScoped(base, ks, state{scope: f.Scope()},
		func(parent state, prefix constraint.Conjunction, atom constraint.Constraint) (state, bool) {
			extras := append(parent.extras[:len(parent.extras):len(parent.extras)], atom)
			child, sat, ok := parent.scope.Clip(atom)
			wantSat, wantOK := referenceSatExtras(f, extras)
			if sat != wantSat || ok != wantOK {
				t.Fatalf("step %d: Clip = (%v, %v), from scratch (%v, %v)\n base: %s\n extras: %v", tally.steps, sat, ok, wantSat, wantOK, base, extras)
			}
			if foldSat, foldOK := SatExtras(f, extras); foldSat != wantSat || foldOK != wantOK {
				t.Fatalf("step %d: SatExtras = (%v, %v), from scratch (%v, %v)\n base: %s\n extras: %v", tally.steps, foldSat, foldOK, wantSat, wantOK, base, extras)
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
				sat = prefix.With(atom).IsSatisfiable()
			}
			return state{scope: child, extras: extras}, sat
		})
	want := constraint.SubtractAll(base, ks)
	if len(got) != len(want) {
		t.Fatalf("%d disjuncts, SubtractAll gives %d\n base: %s", len(got), len(want), base)
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("disjunct %d: %q, SubtractAll gives %q", i, got[i].Key(), want[i].Key())
		}
	}
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
			if tally.steps < 100 || tally.sat == 0 || tally.unsat == 0 {
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

// TestStaircaseClipsOncePerDecision: with the scope carried from parent to
// child, a staircase decision over <= / < atoms is one ClipRing call
// whatever its depth (the from-scratch decision clipped once per
// accumulated atom).
func TestStaircaseClipsOncePerDecision(t *testing.T) {
	clips := 0
	clipRing = func(ring []geometry.Point, h geometry.HalfPlane) []geometry.Point {
		clips++
		return geometry.ClipRing(ring, h)
	}
	defer func() { clipRing = geometry.ClipRing }()
	p1 := datagen.Paper()
	p1.Seed = 1811
	p2 := p1
	p2.Seed = 1812
	decisions, deepest := 0, 0
	type state struct {
		scope Scope
		depth int
	}
	overlapping(datagen.PolygonRelation(p1, 8, 1, 60, 9), datagen.PolygonRelation(p2, 8, 1, 60, 9),
		func(f *Form, base constraint.Conjunction, ks []constraint.Conjunction) {
			clips = 0 // PairSat's, in overlapping
			before := decisions
			constraint.SubtractAllScoped(base, ks, state{scope: f.Scope()},
				func(parent state, prefix constraint.Conjunction, atom constraint.Constraint) (state, bool) {
					child, sat, ok := parent.scope.Clip(atom)
					if !ok { // strict atom on a touching corner: still one clip
						sat = prefix.With(atom).IsSatisfiable()
					}
					decisions++
					if parent.depth+1 > deepest {
						deepest = parent.depth + 1
					}
					return state{scope: child, depth: parent.depth + 1}, sat
				})
			if clips != decisions-before {
				t.Fatalf("%d clips for %d decisions", clips, decisions-before)
			}
		})
	if decisions < 200 || deepest < 8 {
		t.Fatalf("fixture too thin: %d decisions, deepest scope %d atoms", decisions, deepest)
	}
}
