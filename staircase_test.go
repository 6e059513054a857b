package cdb

import (
	"math/rand"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/datagen"
	"cdb/internal/exec"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// TestDifferencePiecesAreIrredundant: the difference operator emits every
// piece the planar rule decides as the rule leaves it — equal, atom for
// atom, to its own SimplifyWith(nil) — whether the piece was read off its
// ring or went through the rule: on the polygon-minus fixture, on the
// polygon rows of the operator's pruning matrix (convex and triangulated
// concave minuends, as built and canonical) under auto and forced dense,
// and on random two-variable minuends and subtrahends, which reach the rule
// with equalities, strict atoms and unbounded regions.
func TestDifferencePiecesAreIrredundant(t *testing.T) {
	p := datagen.Scaled(10)
	p.Seed = 19
	p2 := p
	p2.Seed = p.Seed + 1000
	spread := p.CoordMax / 12
	r1, r2 := polygonMinusInputs()
	polygons := [][2]*relation.Relation{
		{r1, r2},
		{datagen.PolygonRelation(p, 16, 3, spread, 99), datagen.PolygonRelation(p2, 16, 3, spread, 99)},
		{datagen.ConcavePolygonRelation(p, 16, 3, spread, 99), datagen.PolygonRelation(p2, 16, 3, spread, 99)},
	}
	for _, pair := range polygons[1:] {
		polygons = append(polygons, [2]*relation.Relation{datagen.Canonical(pair[0]), datagen.Canonical(pair[1])})
	}
	rng := rand.New(rand.NewSource(34))
	xy := schema.MustNew(schema.Con("x"), schema.Con("y"))
	for i := 0; i < 8; i++ {
		polygons = append(polygons, [2]*relation.Relation{datagen.RandomRelation(rng, xy, 12), datagen.RandomRelation(rng, xy, 12)})
	}
	decided, shrunk := 0, 0
	for i, pair := range polygons {
		for _, mode := range []string{exec.PlanAuto, exec.PlanDense} {
			out, err := cqa.Difference(&exec.Context{Parallelism: 1, PlanMode: mode}, pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			for _, tu := range out.Tuples() {
				con := tu.Constraint()
				if _, ok := con.PlanarEdges(); !ok {
					continue
				}
				decided++
				// The piece comes flagged irredundant, which SimplifyWith
				// takes as proven: ask it about the bare atoms.
				if simp := constraint.And(con.Constraints()...).SimplifyWith(nil); simp.String() != con.String() {
					t.Fatalf("input %d, %s: emitted %s, SimplifyWith leaves %s", i, mode, con, simp)
				}
			}
		}
		// The staircase pieces as built: what the operator had to strip.
		for _, tu := range pair[0].Tuples() {
			for _, k := range pair[1].Tuples() {
				if !tu.SameRelationalPart(k) {
					continue
				}
				for _, piece := range constraint.SubtractAll(tu.Constraint(), []constraint.Conjunction{k.Constraint()}) {
					if piece.SimplifyPlanar().Len() < piece.Len() {
						shrunk++
					}
				}
			}
		}
	}
	if decided < 500 || shrunk < 100 {
		t.Fatalf("vacuous run: %d pieces the rule decides, %d staircase pieces it shrinks", decided, shrunk)
	}
}

// TestConcaveDifferenceDecidesOnPolygons: `minus S0 and T0` of the
// polygon-minus workload at seed 1 — triangulated concave pieces, whose
// shared edges cut staircase scopes flat under strict atoms — makes every
// decision of the difference on the vector path, cold: no fallback and no
// Fourier–Motzkin decision, and the pieces forced dense emits. (Its
// normalisation still decides on five flat pieces no planar rule reads,
// which keeps the request out of TestCounterGolden's table.)
func TestConcaveDifferenceDecidesOnPolygons(t *testing.T) {
	s0 := benchClusteredPolygons(200, 3, datagen.ConcavePolygonRelation)
	t0 := benchClusteredPolygons(300, 3, datagen.ConcavePolygonRelation)
	ec := session(1)
	fm := constraint.DecisionCount()
	out, err := cqa.Difference(ec, s0, t0)
	if err != nil {
		t.Fatal(err)
	}
	if d := constraint.DecisionCount() - fm; d != 0 {
		t.Errorf("the difference made %d Fourier–Motzkin decisions", d)
	}
	for _, s := range ec.Stats() {
		if s.VectorFalls != 0 || s.FMDecisions != 0 || s.VectorHits == 0 {
			t.Errorf("%s: vec=%d vec_fallback=%d fm=%d, want every decision on the vector path", s.Op, s.VectorHits, s.VectorFalls, s.FMDecisions)
		}
	}
	dense, err := cqa.Difference(&exec.Context{Parallelism: 1, PlanMode: exec.PlanDense}, s0, t0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 || out.String() != dense.String() {
		t.Fatalf("auto emits %d tuples, forced dense %d, or they differ", out.Len(), dense.Len())
	}
}
