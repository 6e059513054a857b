package cdb

import (
	"math/rand"
	"runtime"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/datagen"
	"cdb/internal/exec"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// TestDifferencePolygonMinusAllocs puts a ceiling on what
// BenchmarkDifferencePolygonMinus's request, `minus C0 and D0`, allocates
// on warm canonical-form memos: 290 KB and 1 318 allocations per request.
// Its prefixes extend a chain by one slab node per atom and its pieces are
// built once, at emission, from the atoms on their rings' edges (202 KB
// and 1 118 allocations when set); a staircase that builds a canonical
// conjunction per prefix step allocates 311 KB and 1 314 allocations.
func TestDifferencePolygonMinusAllocs(t *testing.T) {
	c0 := benchClusteredPolygons(0, 2, datagen.PolygonRelation)
	d0 := benchClusteredPolygons(100, 2, datagen.PolygonRelation)
	ec := exec.New(1)
	ec.SatCache = constraint.NewSatCache(0)
	minus := func() {
		if _, err := cqa.DifferenceCtx(ec, c0, d0); err != nil {
			t.Fatal(err)
		}
		ec.Reset()
	}
	minus() // forms and hull labels memoised
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		minus()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%.0f KB, %.0f allocations per request", kb, allocs)
	if kb > 290 || allocs > 1318 {
		t.Errorf("minus C0 and D0: %.0f KB and %.0f allocations per request, ceilings 290 KB and 1318", kb, allocs)
	}
}

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
			out, err := cqa.DifferenceCtx(&exec.Context{Parallelism: 1, PlanMode: mode}, pair[0], pair[1])
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
				for _, piece := range constraint.Subtract(tu.Constraint(), k.Constraint()) {
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
