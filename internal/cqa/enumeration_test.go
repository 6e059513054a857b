package cqa

import (
	"fmt"
	"slices"
	"testing"

	"cdb/internal/datagen"
	"cdb/internal/exec"
	"cdb/internal/relation"
)

// enumShape is one pairing problem of the enumeration rule's instrument.
type enumShape struct {
	name   string
	r1, r2 *relation.Relation
	sweeps bool // whether auto sweeps its (largest) bucket
}

// enumShapes are the pairing problems sweepC is chosen on, every tuple
// canonical as a loaded database or an operator output holds it: the
// benchmark workloads' pairings — Query 3's track join (R0 ⋈ Hurricane,
// 192 × 8 on 8 × 8 parcels), box-join's one-cluster 20 × 20 boxes and
// polygon-minus's C0 × D0 and S0 × T0 (twelve clusters of two convex
// polygons, or of three concave ones in triangulated pieces, a side) —
// and sparse boxes at n a side.
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
		{"q3-track", r0, datagen.Canonical(track), false},
		{"box-join", datagen.Canonical(datagen.ClusteredBoxRelation(box, 20, 1, 10, 77)),
			datagen.Canonical(datagen.ClusteredBoxRelation(box2, 20, 1, 10, 77)), false},
		{"polygon-minus", clusteredPolygons(0, 2, datagen.PolygonRelation),
			clusteredPolygons(100, 2, datagen.PolygonRelation), false},
		{"polygon-minus-concave", clusteredPolygons(200, 3, datagen.ConcavePolygonRelation),
			clusteredPolygons(300, 3, datagen.ConcavePolygonRelation), false},
	}
	for _, n := range []int{32, 64, 128, 512} {
		r1, r2 := sparseBoxes(n)
		shapes = append(shapes, enumShape{fmt.Sprintf("sparse-%d", n), r1, r2, n >= 64})
	}
	return shapes
}

// sparseBoxes is two canonical relations of n sparse boxes over the full
// coordinate range (BoxRelation at idMod 1: one id, every seventh left
// NULL, so one large bucket and a small one): nearly every pair is
// separated, the interval sweep's shape.
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

// pairShape runs the filter stage over shape's pairing under mode: on the
// shape's own relations, whose working sets are memoised after the first
// call, or, when fresh, on new relation headers over the same tuples, which
// build theirs again as an operator output does.
func pairShape(mode string, shape enumShape, fresh bool) pairPlan {
	r1, r2 := shape.r1, shape.r2
	if fresh {
		r1, r2 = freshHeader(r1), freshHeader(r2)
	}
	sharedRel, sharedCon := sharedAttrs(r1.Schema(), r2.Schema())
	return pairCandidates(&exec.Context{PlanMode: mode}, r1, r2, sharedRel, sharedCon)
}

// TestEnumerationRule pins the enumeration rule (sweepBucket) on the
// shapes sweepC was chosen on: under auto the workload pairings enumerate
// dense and the sparse boxes from n = 64 a side sweep; every
// shape keeps the same candidates as the forced dense loop; and est_pairs
// is the bucket-matched pair count.
func TestEnumerationRule(t *testing.T) {
	for _, shape := range enumShapes(t) {
		auto, dense := pairShape(exec.PlanAuto, shape, true), pairShape(exec.PlanDense, shape, true)
		want := exec.PlanDense
		if shape.sweeps {
			want = exec.PlanSweep
		}
		if auto.enum != want {
			t.Errorf("%s: auto enumerated %s, want %s", shape.name, auto.enum, want)
		}
		if !slices.Equal(auto.cands, dense.cands) {
			t.Errorf("%s: auto kept %d candidates, forced dense %d", shape.name, len(auto.cands), len(dense.cands))
		}
		sharedRel, _ := sharedAttrs(shape.r1.Schema(), shape.r2.Schema())
		var matched int64
		for _, t1 := range shape.r1.Tuples() {
			for _, t2 := range shape.r2.Tuples() {
				if t1.PartitionKey(sharedRel) == t2.PartitionKey(sharedRel) {
					matched++
				}
			}
		}
		if auto.estPairs != matched || dense.estPairs != matched {
			t.Errorf("%s: est_pairs auto %d, dense %d, want the %d bucket-matched pairs",
				shape.name, auto.estPairs, dense.estPairs, matched)
		}
	}
}

// BenchmarkPairCandidates is the enumeration rule's instrument: the filter
// stage alone (pairCandidates) on each enumShapes pairing, under forced
// dense, forced sweep and auto, each on fresh relation headers (fresh: the
// inputs' working sets are built in the timed call, as an operator output's
// are) and on the shapes' own relations (stored: read from their memos, as a
// loaded relation's are). sweepC was chosen on the fresh legs, before the
// frame compared float keys: medians of five runs of 0.5 s, 2-core host
// shared with other work (run-to-run spread about ±10 %), µs per op; r is
// n·m / ((n+m)·log₂(n+m)) of the largest bucket, and auto sweeps a bucket
// iff its r ≥ sweepC = 3.5:
//
//	shape                     r    dense    sweep     auto
//	q3-track               1.00    146.5    169.8    149.9
//	box-join               1.88     50.3     71.2     53.4
//	polygon-minus          2.15     43.1     63.0     44.2
//	polygon-minus-concave  2.92     86.9    121.6     81.6
//	sparse-32              2.35     42.1     32.1     49.3
//	sparse-64              4.00    133.9     74.3     76.2
//	sparse-128             7.02    536.1    193.3    216.6
//	sparse-512            22.4    8808     1318     1274
//
// On the workload pairings the sweep skips too little to pay for its sort
// (box-join's and polygon-minus's pairs nearly all overlap in the sweep
// column, Query 3's track join 640 of its 1 536); the sparse boxes overlap
// in about one pair in thirty, and the sweep skips the rest. Size alone
// cannot tell the two apart, so sweepC sits above the workloads' largest
// r (2.92) and below sparse-64's (4.00): sparse-32 runs dense and gives up
// its sweep's win, and in sparse-128 auto runs the 19 × 19 bucket of NULL
// ids (r = 1.81) dense, about a tenth over forced sweep.
//
// With float keys and the working sets memoised, the same host, µs per op,
// fresh / stored:
//
//	shape                    dense           sweep           auto
//	q3-track                 41.3 /   15.9   45.3 /  25.3    39.5 /  13.8
//	box-join                 18.6 /   11.0   30.2 /  21.3    17.6 /  10.4
//	polygon-minus            14.9 /    6.0   12.8 /   4.2    17.0 /   6.5
//	polygon-minus-concave    26.1 /   13.4   22.5 /   8.6    30.5 /  14.8
//	sparse-32                23.0 /    7.1   19.4 /   4.9    23.0 /   7.7
//	sparse-64                59.7 /   35.7   35.9 /  10.6    31.5 /  10.4
//	sparse-128              167.4 /  109.4   71.3 /  26.4    77.5 /  27.7
//	sparse-512             2239   / 2136    492   / 321     545   / 308
//
// The sweep now edges out dense on the two polygon pairings too, by about
// a sixth fresh and 2 µs stored, next to a polygon-minus request's 1.8 ms;
// sweepC stays. In a request, Query 3's track join reads Hurricane's
// working set stored and builds its left side's, an operator output, fresh:
// it costs between the two legs.
func BenchmarkPairCandidates(b *testing.B) {
	for _, shape := range enumShapes(b) {
		for _, mode := range []string{exec.PlanDense, exec.PlanSweep, exec.PlanAuto} {
			for _, leg := range []struct {
				name  string
				fresh bool
			}{{"stored", false}, {"fresh", true}} {
				b.Run(shape.name+"/"+mode+"/"+leg.name, func(b *testing.B) {
					pairShape(mode, shape, leg.fresh)
					b.ReportAllocs()
					for b.Loop() {
						pairShape(mode, shape, leg.fresh)
					}
				})
			}
		}
	}
}
