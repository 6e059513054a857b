package constraint_test

import (
	"testing"

	"cdb/internal/cqa"
	"cdb/internal/datagen"
	"cdb/internal/relation"
)

// TestSimplifyMatchesReferenceOnOperatorOutputs compares Simplify with the
// reference on what normalisation really receives: every tuple the join,
// intersect and difference operators emit over the benchmark's relation
// shapes (dense clustered boxes; convex and triangulated-concave polygons).
func TestSimplifyMatchesReferenceOnOperatorOutputs(t *testing.T) {
	boxes := func(seed int64) *relation.Relation {
		p := datagen.Paper()
		p.SizeMin = 50
		p.Seed = seed
		return datagen.ClusteredBoxRelation(p, 20, 1, 10, 77)
	}
	polygons := func(gen func(datagen.Params, int, int, float64, int64) *relation.Relation, seed int64, n int) *relation.Relation {
		p := datagen.Paper()
		p.Seed = seed
		return gen(p, n, 2, 60, 977)
	}
	type binary func(r1, r2 *relation.Relation) (*relation.Relation, error)
	cases := []struct {
		name   string
		op     binary
		r1, r2 *relation.Relation
	}{
		{"join boxes", cqa.Join, boxes(1), boxes(501)},
		{"intersect boxes", cqa.Intersect, boxes(2), boxes(502)},
		{"minus boxes", cqa.Difference, boxes(3), boxes(503)},
		{"intersect convex", cqa.Intersect, polygons(datagen.PolygonRelation, 4, 12), polygons(datagen.PolygonRelation, 504, 12)},
		{"minus convex", cqa.Difference, polygons(datagen.PolygonRelation, 5, 8), polygons(datagen.PolygonRelation, 505, 8)},
		{"minus concave", cqa.Difference, polygons(datagen.ConcavePolygonRelation, 6, 8), polygons(datagen.ConcavePolygonRelation, 506, 8)},
		{"minus concave from convex", cqa.Difference, polygons(datagen.PolygonRelation, 7, 8), polygons(datagen.ConcavePolygonRelation, 507, 8)},
	}
	for _, c := range cases {
		out, err := c.op(c.r1, c.r2)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if out.Len() == 0 {
			t.Fatalf("%s: empty result; the comparison is vacuous", c.name)
		}
		shrunk := 0
		for _, tp := range out.Tuples() {
			j := tp.Constraint()
			simplifyAgrees(t, c.name, j)
			if j.Simplify().Len() < j.Len() {
				shrunk++
			}
		}
		t.Logf("%s: %d tuples, %d with a redundant atom", c.name, out.Len(), shrunk)
	}
}
