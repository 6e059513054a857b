package constraint_test

import (
	"math/rand"
	"strings"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/datagen"
	"cdb/internal/query"
	"cdb/internal/relation"
)

// stairRows are staircases written "minuend ; subtrahend ; ...", built to
// reach what the chain's edge rule must hand to the built conjunction or
// fold itself: a strict atom through a vertex of the region (one, and two
// through one vertex, where the replay's order decides), equalities,
// parallel and repeated atoms, and an atom of the minuend and a pushed one
// on one edge line, closed and strict. They are also FuzzStaircase's seeds.
var stairRows = []string{
	"x >= 0, x <= 4, y >= 0, y <= 4 ; x + y <= 0, x <= -1",
	"x >= 0, x <= 4, y >= 0, y <= 4 ; x + y <= 0 ; x + 2y <= 0",
	"x >= 0, x <= 4, y >= 0, y <= 4 ; x + y < 0",
	"x >= 0, x <= 4, y >= 0, y <= 4 ; x = 2, y <= 1 ; y = 3",
	"x >= 0, x <= 4, y >= 0, y <= 4 ; x >= 4 ; x <= 3, x <= 2 ; x <= 2, x <= 2 ; x < 1",
	"x >= 0, x <= 4, y >= 0, y <= 4 ; x >= 4, y <= 2 ; y < 2",
	"x >= 0, x <= 4, x <= 4, y >= 0, y <= 4, x + y <= 6 ; x + y >= 6 ; y >= 3",
	"x >= 0, y >= 0, x + y <= 6 ; x >= 2, y >= 2 ; x <= 1 ; x - y < 6",
	"x >= 0, y >= 0 ; x >= 1, y >= 1 ; x + y >= 4",
}

// parseStair reads a stairRows line; ok is false when a part does not parse
// or, for the fuzzer, holds more than twelve atoms.
func parseStair(src string) (j constraint.Conjunction, ks []constraint.Conjunction, ok bool) {
	atoms := 0
	for i, part := range strings.Split(src, ";") {
		cs, err := query.ParseConstraints(part)
		if err != nil {
			return j, nil, false
		}
		atoms += len(cs)
		if i == 0 {
			j = constraint.And(cs...)
		} else {
			ks = append(ks, constraint.And(cs...))
		}
	}
	return j, ks, atoms <= 12
}

// TestChainStaircaseMatchesReference holds the chain staircase and its edge
// rule to the eager reference (constraint.CheckStaircase) on the hand-built
// rows, on convex and triangulated concave polygons minus the polygons of
// another relation that meet them, as the difference operator subtracts
// them, and on random draws of up to four atoms over x, y — raw, as
// operators meet them — and over x, y, z.
func TestChainStaircaseMatchesReference(t *testing.T) {
	var tally constraint.StaircaseTally
	for _, src := range stairRows {
		j, ks, ok := parseStair(src)
		if !ok {
			t.Fatalf("row %q does not parse", src)
		}
		constraint.CheckStaircase(t, j, ks, &tally)
	}
	if tally.Built == 0 {
		t.Fatalf("no hand-built row reached the built conjunction: %+v", tally)
	}
	p := datagen.Paper()
	p.Seed = 37
	p2 := p
	p2.Seed += 1000
	for _, pair := range [][2]*relation.Relation{
		{datagen.PolygonRelation(p, 12, 1, 30, 5), datagen.PolygonRelation(p2, 12, 1, 30, 5)},
		{datagen.ConcavePolygonRelation(p, 8, 1, 30, 5), datagen.PolygonRelation(p2, 12, 1, 30, 5)},
	} {
		for _, t1 := range pair[0].Tuples() {
			var ks []constraint.Conjunction
			for _, t2 := range pair[1].Tuples() {
				if t1.Constraint().Merge(t2.Constraint()).IsSatisfiable() {
					ks = append(ks, t2.Constraint())
				}
			}
			constraint.CheckStaircase(t, t1.Constraint(), ks, &tally)
		}
	}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 1000; i++ {
		vars := []string{"x", "y"}
		if i%4 == 3 {
			vars = append(vars, "z")
		}
		j := datagen.RandomConjunction(rng, vars)
		ks := make([]constraint.Conjunction, 1+rng.Intn(3))
		for k := range ks {
			ks[k] = datagen.RandomConjunction(rng, vars)
		}
		constraint.CheckStaircase(t, j, ks, &tally)
	}
	if tally.Pieces < 1000 || tally.Read < 600 || tally.Fast < 500 || tally.Built < 10 {
		t.Fatalf("vacuous run: %+v", tally)
	}
}
