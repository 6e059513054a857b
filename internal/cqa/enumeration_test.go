package cqa

import (
	"fmt"
	"testing"

	"cdb/internal/datagen"
	"cdb/internal/relation"
)

// enumShape is one pairing problem of the filter stage's instrument.
type enumShape struct {
	name   string
	r1, r2 *relation.Relation
}

// enumShapes are the filter stage's pairing problems, every tuple
// canonical as a loaded database or an operator output holds it: the
// benchmark workloads' pairings — Query 3's track join (R0 ⋈ Hurricane,
// 192 × 8 on 8 × 8 parcels), box-join's one-cluster 20 × 20 boxes and
// polygon-minus's C0 × D0 and S0 × T0 (twelve clusters of two convex
// polygons, or of three concave ones in triangulated pieces, a side) —
// and sparse boxes at n a side, a shape no workload has.
func enumShapes(tb testing.TB) []enumShape {
	tb.Helper()
	land, owners, track := datagen.HurricaneRelations(8)
	r0, err := Join(datagen.Canonical(owners), datagen.Canonical(land))
	if err != nil {
		tb.Fatal(err)
	}
	box := datagen.Paper()
	box.SizeMin, box.Seed = 50, 16
	box2 := box
	box2.Seed += 500
	shapes := []enumShape{
		{"q3-track", r0, datagen.Canonical(track)},
		{"box-join", datagen.Canonical(datagen.ClusteredBoxRelation(box, 20, 1, 10, 77)),
			datagen.Canonical(datagen.ClusteredBoxRelation(box2, 20, 1, 10, 77))},
		{"polygon-minus", clusteredPolygons(0, 2, datagen.PolygonRelation),
			clusteredPolygons(100, 2, datagen.PolygonRelation)},
		{"polygon-minus-concave", clusteredPolygons(200, 3, datagen.ConcavePolygonRelation),
			clusteredPolygons(300, 3, datagen.ConcavePolygonRelation)},
	}
	for _, n := range []int{32, 64, 128, 512} {
		r1, r2 := sparseBoxes(n)
		shapes = append(shapes, enumShape{fmt.Sprintf("sparse-%d", n), r1, r2})
	}
	return shapes
}

// sparseBoxes is two canonical relations of n sparse boxes over the full
// coordinate range (BoxRelation at idMod 1: one id, every seventh left
// NULL, so one large bucket and a small one): nearly every pair is
// separated.
func sparseBoxes(n int) (r1, r2 *relation.Relation) {
	p := datagen.Scaled(5)
	p2 := p
	p2.Seed += 1000
	return datagen.Canonical(datagen.BoxRelation(p, n, 1)), datagen.Canonical(datagen.BoxRelation(p2, n, 1))
}

// clusteredPolygons is the polygon-minus workload's relation rel at seed
// 1 (C0 is 0, D0 100, S0 200, T0 300): twelve clusters of perCluster gen
// polygons, 60 wide, canonical.
func clusteredPolygons(rel, perCluster int, gen func(datagen.Params, int, int, float64, int64) *relation.Relation) *relation.Relation {
	var out *relation.Relation
	for c := 0; c < 12; c++ {
		p := datagen.Paper()
		p.Seed = 100000 + int64(rel)*1000 + int64(c)
		r := datagen.Canonical(gen(p, perCluster, 1, 60, 977+int64(c)))
		if out == nil {
			out = relation.New(r.Schema())
		}
		for _, t := range r.Tuples() {
			out.MustAdd(t)
		}
	}
	return out
}

// pairShape runs the filter stage over shape's pairing: on the shape's own
// relations, whose working sets are memoised after the first call, or,
// when fresh, on new relation headers over the same tuples, which build
// theirs again as an operator output does.
func pairShape(shape enumShape, fresh bool) pairPlan {
	r1, r2 := shape.r1, shape.r2
	if fresh {
		r1, r2 = freshHeader(r1), freshHeader(r2)
	}
	sharedRel, sharedCon := sharedAttrs(r1.Schema(), r2.Schema())
	return pairCandidates(r1, r2, sharedRel, sharedCon)
}

// TestEnumerationRule pins the filter stage's one enumeration on every
// enumShapes shape: est_pairs is the bucket-matched pair count, and the
// candidates are as many as the bucket-matched pairs whose envelopes are
// not Disjoint (TestFrameCandidatesExact checks the set itself).
func TestEnumerationRule(t *testing.T) {
	for _, shape := range enumShapes(t) {
		plan := pairShape(shape, true)
		sharedRel, sharedCon := sharedAttrs(shape.r1.Schema(), shape.r2.Schema())
		var matched, kept int64
		for _, t1 := range shape.r1.Tuples() {
			for _, t2 := range shape.r2.Tuples() {
				if t1.PartitionKey(sharedRel) == t2.PartitionKey(sharedRel) {
					matched++
					if !t1.Constraint().Envelope().Disjoint(t2.Constraint().Envelope(), sharedCon) {
						kept++
					}
				}
			}
		}
		if plan.estPairs != matched {
			t.Errorf("%s: est_pairs %d, want the %d bucket-matched pairs", shape.name, plan.estPairs, matched)
		}
		if int64(len(plan.cands)) != kept {
			t.Errorf("%s: %d candidates, want the %d bucket-matched pairs with envelopes not disjoint",
				shape.name, len(plan.cands), kept)
		}
	}
}

// BenchmarkPairCandidates is the filter stage's instrument: pairCandidates
// alone on each enumShapes pairing, on fresh relation headers (fresh: the
// inputs' working sets are built in the timed call, as an operator output's
// are) and on the shapes' own relations (stored: read from their memos, as a
// loaded relation's are). In a request, Query 3's track join reads
// Hurricane's working set stored and builds its left side's, an operator
// output, fresh: it costs between the two legs.
//
// One nested loop per bucket costs the sparse shapes what the interval
// sweep, the enumeration that ran on large sparse buckets until it was
// removed, saved them. Ten alternating pairs of scripts/ab.sh --go-bench
// against the last code with the sweep, 2-core host shared with other
// work, medians in µs per op, stored / fresh:
//
//	shape         with the sweep     one loop
//	sparse-64      11.0 /  36.6      30.9 /   54.7
//	sparse-128     27.9 /  73.4     123.7 /  168.1
//	sparse-512    311   / 492      2636   / 2686
//
// Every other shape stayed within the quartiles of the runs with the sweep.
// No workload has sparse inputs of that size (docs/ARCHITECTURE.md "What
// was removed, and why").
func BenchmarkPairCandidates(b *testing.B) {
	for _, shape := range enumShapes(b) {
		for _, leg := range []struct {
			name  string
			fresh bool
		}{{"stored", false}, {"fresh", true}} {
			b.Run(shape.name+"/"+leg.name, func(b *testing.B) {
				pairShape(shape, leg.fresh)
				b.ReportAllocs()
				for b.Loop() {
					pairShape(shape, leg.fresh)
				}
			})
		}
	}
}
