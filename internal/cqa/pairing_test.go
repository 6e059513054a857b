package cqa

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/datagen"
	"cdb/internal/exec"
	"cdb/internal/obs"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// pruneInputs builds the three workload shapes the filter is designed
// around — skewed relational buckets (partition pruning), spatial clusters
// with all-NULL ids (envelope pruning), and the plain BoxRelation
// mix — plus the edges of the shared pipeline: an empty right side, a
// schema with no relational attribute (no partition at all), and left
// tuples (ids b2, b3) whose bucket does not exist on the right. The two
// polygon rows (convex × convex, triangulated-concave × convex) are the
// inputs the clip decider takes; polygonInputs names them. Each row comes
// twice: the generator's tuples as built (no memo, so boxes are clipped and
// every form and envelope is derived on demand — what a hand-built database
// such as -demo holds), and under a "canon-" prefix the canonical copy a
// session's relations are (loaded from a file, or operator outputs), which
// is what puts the box rows in the envelope decider's domain; boxInputs
// names those. Sizes stay small enough for the dense baseline to be cheap.
func pruneInputs(t *testing.T) map[string][2]*relation.Relation {
	t.Helper()
	p := datagen.Scaled(10)
	p.Seed = 19
	p2 := p
	p2.Seed = p.Seed + 1000
	xy := func(r *relation.Relation) *relation.Relation {
		out, err := Project(nil, r, "x", "y")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	skewed := datagen.SkewedBoxRelation(p, 36, 6)
	rows := map[string][2]*relation.Relation{
		"empty-right":   {skewed, relation.New(skewed.Schema())},
		"no-relational": {xy(datagen.BoxRelation(p, 36, 4)), xy(datagen.BoxRelation(p2, 36, 4))},
		"absent-bucket": {datagen.BoxRelation(p, 36, 4), datagen.BoxRelation(p2, 36, 2)},
		"boxes":         {datagen.BoxRelation(p, 36, 4), datagen.BoxRelation(p2, 36, 4)},
		"skewed": {datagen.SkewedBoxRelation(p, 36, 6),
			datagen.SkewedBoxRelation(p2, 36, 6)},
		"clustered": {datagen.ClusteredBoxRelation(p, 36, 5, 50, 99),
			datagen.ClusteredBoxRelation(p2, 36, 5, 50, 99)},
		"polygons": {datagen.PolygonRelation(p, polyN, 3, p.CoordMax/12, 99),
			datagen.PolygonRelation(p2, polyN, 3, p.CoordMax/12, 99)},
		"concave": {datagen.ConcavePolygonRelation(p, polyN, 3, p.CoordMax/12, 99),
			datagen.PolygonRelation(p2, polyN, 3, p.CoordMax/12, 99)},
	}
	for name, pair := range rows {
		if !strings.HasPrefix(name, "canon-") {
			rows["canon-"+name] = [2]*relation.Relation{datagen.Canonical(pair[0]), datagen.Canonical(pair[1])}
		}
	}
	return rows
}

// polyN is the polygon rows' size: difference's staircase fragments far
// faster on overlapping polygons than on boxes.
const polyN = 16

// polygonInputs are the pruneInputs rows on which auto must really clip
// (VectorHits > 0) rather than fall back to Fourier-Motzkin; boxInputs the
// canonical box rows, on which auto must decide join and intersect on the
// envelopes alone.
var (
	polygonInputs = map[string]bool{"polygons": true, "concave": true,
		"canon-polygons": true, "canon-concave": true}
	boxInputs = map[string]bool{"canon-empty-right": true, "canon-no-relational": true,
		"canon-absent-bucket": true, "canon-boxes": true, "canon-skewed": true, "canon-clustered": true}
)

// TestPruningEquivalence is the filter's acceptance contract: with the
// candidate filter on, every binary operator produces byte-identical
// output (same tuples, same order) to the dense nested loop, sequentially
// and under the pool, on every workload shape — pruned pairs are exactly
// pairs the refine step would have rejected anyway. The filtered side runs
// under every plan mode, with the irredundant memo kept and forced clear
// (the unfiltered side is the eliminator alone, run once).
func TestPruningEquivalence(t *testing.T) {
	ops := map[string]func(ec *exec.Context, r1, r2 *relation.Relation) (*relation.Relation, error){
		"join":       Join,
		"intersect":  Intersect,
		"difference": Difference,
	}
	for wName, pair := range pruneInputs(t) {
		for opName, op := range ops {
			for _, par := range []int{1, 4} {
				want, err := op(&exec.Context{Parallelism: par, SeqThreshold: 1, NoPrune: true}, pair[0], pair[1])
				if err != nil {
					t.Fatalf("%s %s par%d dense: %v", wName, opName, par, err)
				}
				for _, mode := range planModes {
					for _, irrClear := range irrSettings {
						withIrrClear(irrClear, func() {
							got, err := op(&exec.Context{Parallelism: par, SeqThreshold: 1, PlanMode: mode}, pair[0], pair[1])
							if err != nil {
								t.Fatalf("%s %s par%d %s filtered: %v", wName, opName, par, mode, err)
							}
							revalidate(t, wName+" "+opName, got)
							if dumpNormalised(got) != dumpNormalised(want) {
								t.Errorf("%s %s par%d %s irrClear=%v: filtered output diverges from dense\ndense:\n%s\nfiltered:\n%s",
									wName, opName, par, mode, irrClear, dumpNormalised(want), dumpNormalised(got))
							}
						})
					}
				}
			}
		}
	}
}

// TestFrameCandidatesExact: the filter stage keeps exactly the
// bucket-matched pairs whose envelopes Envelope.Disjoint does not reject,
// in ascending flattened order, on clustered, skewed and interleaved
// boxes, and on tuples whose endpoints the float keys find hard (adversarialEndpoints),
// where the frame check breaks float ties exactly.
func TestFrameCandidatesExact(t *testing.T) {
	p := datagen.Scaled(10)
	p.Seed = 23
	p2 := p
	p2.Seed = p.Seed + 1000
	rng := rand.New(rand.NewSource(61))
	hard := adversarialEndpoints()
	for name, tc := range map[string]struct {
		t1s, t2s  []relation.Tuple
		sharedRel []string
	}{
		// All-NULL ids: one bucket.
		"clustered": {datagen.ClusteredBoxRelation(p, 40, 6, 60, 99).Tuples(),
			datagen.ClusteredBoxRelation(p2, 40, 6, 60, 99).Tuples(), []string{"id"}},
		"skewed": {datagen.SkewedBoxRelation(p, 40, 5).Tuples(),
			datagen.SkewedBoxRelation(p2, 40, 5).Tuples(), []string{"id"}},
		// The clustered boxes with ids cycling through four values: the
		// buckets interleave, so the loop emits out of flattened order.
		"interleaved": {cycleIDs(datagen.ClusteredBoxRelation(p, 40, 6, 60, 99).Tuples()),
			cycleIDs(datagen.ClusteredBoxRelation(p2, 40, 6, 60, 99).Tuples()), []string{"id"}},
		"adversarial": {randBoundedTuples(rng, 60, hard, "x", "y"),
			randBoundedTuples(rng, 60, hard, "x", "y"), nil},
	} {
		t1s, t2s := tc.t1s, tc.t2s
		vars := []string{"x", "y"}
		plan := pairCandidates(tupleRel(t1s), tupleRel(t2s), tc.sharedRel, vars)
		if plan.total != len(t1s)*len(t2s) {
			t.Fatalf("%s: total %d, want %d", name, plan.total, len(t1s)*len(t2s))
		}
		// Strictly ascending and each one kept by the reference: with the
		// reference's count, exactly the reference's set.
		for n, k := range plan.cands {
			if n > 0 && plan.cands[n-1] >= k {
				t.Fatalf("%s: candidates %d, %d are not in strictly ascending flattened order", name, plan.cands[n-1], k)
			}
			i, j := k/len(t2s), k%len(t2s)
			if t1s[i].PartitionKey(tc.sharedRel) != t2s[j].PartitionKey(tc.sharedRel) ||
				t1s[i].Constraint().Envelope().Disjoint(t2s[j].Constraint().Envelope(), vars) {
				t.Fatalf("%s: candidate (%d, %d) is in no shared bucket or has disjoint envelopes", name, i, j)
			}
		}
		if want := plan.total - countDisjoint(t1s, t2s, tc.sharedRel, vars); len(plan.cands) != want {
			t.Fatalf("%s: %d candidates, %d bucket-matched pairs with envelopes not disjoint", name, len(plan.cands), want)
		}
		if plan.pruned() == 0 {
			t.Errorf("%s: filter pruned nothing; the fixture is too easy", name)
		}
	}
}

// cycleIDs is ts with the relational id of tuple i bound to "b" + i mod 4.
func cycleIDs(ts []relation.Tuple) []relation.Tuple {
	out := make([]relation.Tuple, len(ts))
	for i, tu := range ts {
		rvals := tu.RVals()
		rvals["id"] = relation.Str(fmt.Sprintf("b%d", i%4))
		out[i] = relation.NewTuple(rvals, tu.Constraint())
	}
	return out
}

// tupleRel is a relation header over ts, fresh: no working set memoised.
// The filter stage reads no schema, so it has none.
func tupleRel(ts []relation.Tuple) *relation.Relation { return relation.FromValid(schema.Schema{}, ts) }

// frameOf is the frame of t1s × t2s over the shared constraint attributes
// cols, built from fresh inputs.
func frameOf(t1s, t2s []relation.Tuple, cols []string) frame {
	return newFrame(newInput(t1s, nil, cols), newInput(t2s, nil, cols))
}

// countDisjoint counts the pairs of t1s × t2s that differ on a shared
// relational attribute or whose envelopes are Disjoint on vars: what the
// filter stage must reject, by the exact reference.
func countDisjoint(t1s, t2s []relation.Tuple, sharedRel, vars []string) int {
	n := 0
	for _, a := range t1s {
		for _, b := range t2s {
			if a.PartitionKey(sharedRel) != b.PartitionKey(sharedRel) || a.Constraint().Envelope().Disjoint(b.Constraint().Envelope(), vars) {
				n++
			}
		}
	}
	return n
}

// TestPairsStatsConsistent: the filter's pairs/pairs_pruned counters agree
// between the flat stats records, the span tree and the metric families —
// the invariant the explain tests rely on.
func TestPairsStatsConsistent(t *testing.T) {
	p := datagen.Scaled(10)
	p.Seed = 29
	p2 := p
	p2.Seed = p.Seed + 1000
	r1 := datagen.SkewedBoxRelation(p, 30, 6)
	r2 := datagen.SkewedBoxRelation(p2, 30, 6)
	ec := &exec.Context{Parallelism: 4, SeqThreshold: 1}
	ec.Tracer = obs.NewTracer()
	reg := obs.NewRegistry()
	ec.Metrics = reg
	if _, err := Join(ec, r1, r2); err != nil {
		t.Fatal(err)
	}
	var pairs, filtered int64
	for _, s := range ec.Stats() {
		pairs += s.PairsTotal
		filtered += s.PairsPruned
	}
	if pairs != int64(r1.Len()*r2.Len()) {
		t.Errorf("PairsTotal = %d, want %d", pairs, r1.Len()*r2.Len())
	}
	if filtered == 0 {
		t.Fatal("filter pruned nothing; the consistency check is vacuous")
	}
	roots := ec.Tracer.Roots()
	if got := obs.SumCounter(roots, "pairs"); got != pairs {
		t.Errorf("span pairs total = %d, stats = %d", got, pairs)
	}
	if got := obs.SumCounter(roots, "pairs_pruned"); got != filtered {
		t.Errorf("span pairs_pruned total = %d, stats = %d", got, filtered)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cdb_op_pairs_total", "cdb_op_pairs_pruned_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics output missing %s:\n%s", want, buf.String())
		}
	}
}

// TestUnionStats: union runs on the pool like the other operators and
// records one stats row (the recorder-consistency fix).
func TestUnionStats(t *testing.T) {
	r1, r2 := parInputs(t, 31, 30, 30, 5)
	ec := &exec.Context{Parallelism: 4, SeqThreshold: 1}
	out, err := Union(ec, r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	stats := ec.Stats()
	if len(stats) != 1 || stats[0].Op != "union" {
		t.Fatalf("stats = %+v, want one union record", stats)
	}
	s := stats[0]
	if s.TuplesIn != int64(r1.Len()+r2.Len()) {
		t.Errorf("TuplesIn = %d, want %d", s.TuplesIn, r1.Len()+r2.Len())
	}
	if s.TuplesOut != int64(out.Len()) {
		t.Errorf("TuplesOut = %d, want %d", s.TuplesOut, out.Len())
	}
	if !s.Parallel {
		t.Error("union at threshold 1 over 60 tuples should report Parallel")
	}

	ecSeq := &exec.Context{Parallelism: 4, SeqThreshold: 1 << 20}
	if _, err := Union(ecSeq, r1, r2); err != nil {
		t.Fatal(err)
	}
	if ecSeq.Stats()[0].Parallel {
		t.Error("union below SeqThreshold must not report Parallel")
	}
}

// randBounds is a random mix of envelope bounds on v: none (1 in 6),
// one-sided, two-sided (possibly empty), open or closed, or a point — so
// the frame sees every endpoint shape, touching intervals included. Each
// tuple's endpoints are drawn from one cluster of pool, so they meet
// often: smallInts, or adversarialEndpoints.
func randBounds(rng *rand.Rand, pool [][]rational.Rat, v string) []constraint.Constraint {
	if rng.Intn(6) == 0 {
		return nil
	}
	cluster := pool[rng.Intn(len(pool))]
	lo, hi := cluster[rng.Intn(len(cluster))], cluster[rng.Intn(len(cluster))]
	switch rng.Intn(4) {
	case 0:
		return []constraint.Constraint{constraint.GeConst(v, lo)}
	case 1:
		return []constraint.Constraint{constraint.LeConst(v, hi)}
	case 2:
		var cs []constraint.Constraint
		if rng.Intn(2) == 0 {
			cs = append(cs, constraint.GeConst(v, lo))
		} else {
			cs = append(cs, constraint.GtConst(v, lo))
		}
		if rng.Intn(2) == 0 {
			return append(cs, constraint.LeConst(v, hi))
		}
		return append(cs, constraint.LtConst(v, hi))
	}
	return []constraint.Constraint{constraint.EqConst(v, lo)}
}

// smallInts is one cluster of the integers -10…10: endpoints whose keys
// are all exact.
var smallInts = func() [][]rational.Rat {
	var c []rational.Rat
	for n := int64(-10); n <= 10; n++ {
		c = append(c, rational.FromInt(n))
	}
	return [][]rational.Rat{c}
}()

// adversarialEndpoints are clusters of endpoints the float keys find
// hard, so that a pair of tuples from one cluster meets on a float tie:
//
//   - dyadic values 1 ulp apart, whose keys are exact and differ;
//   - 1/3 and the rationals 2^-60 and 2^-62 from it: unequal, one float
//     (2^-62 away is a promoted math/big value);
//   - 1/2, a dyadic tie (exact keys), and 1/3, a non-dyadic one (inexact);
//   - the int64 edge, where MaxInt64 and MaxInt64 − 1 round to 2^63 and
//     MinInt64's key is exact but MinInt64 + 1's is not, and 1/MaxInt64;
//   - promoted values past 2^64 that round to one float.
//
// randBounds draws whether each endpoint is open, so open and closed
// endpoints meet at one value too.
func adversarialEndpoints() [][]rational.Rat {
	ofFloat := func(f float64) rational.Rat { return rational.FromBig(new(big.Rat).SetFloat64(f)) }
	third := rational.New(1, 3)
	tf, _ := third.Float64()
	off := func(k uint) rational.Rat {
		return rational.FromBig(new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), k)))
	}
	two64 := rational.FromBig(new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 64)))
	return [][]rational.Rat{
		{ofFloat(tf), ofFloat(math.Nextafter(tf, 1)), ofFloat(math.Nextafter(tf, 0)), third,
			third.Add(off(60)), third.Sub(off(60)), third.Add(off(62)), third.Sub(off(62))},
		{rational.New(1, 2), ofFloat(math.Nextafter(0.5, 1)), ofFloat(math.Nextafter(0.5, 0)), rational.New(1, 2).Add(off(70))},
		{rational.FromInt(1 << 53), rational.FromInt(1<<53 + 1), rational.FromInt(1<<53 + 2), rational.FromInt(1<<53 - 1)},
		{rational.FromInt(math.MaxInt64), rational.FromInt(math.MaxInt64 - 1), rational.New(math.MaxInt64, 3),
			rational.FromInt(math.MinInt64), rational.FromInt(math.MinInt64 + 1), rational.FromInt(math.MinInt64 + 2),
			rational.New(1, math.MaxInt64), rational.New(1, math.MaxInt64-1), rational.Zero},
		{two64, two64.Add(rational.One), two64.Sub(rational.One), two64.Add(rational.New(1, 3))},
	}
}

// randBoundedTuples is n constraint tuples with randBounds on each of
// vars, endpoints from pool, and now and then a bound on an unshared z.
func randBoundedTuples(rng *rand.Rand, n int, pool [][]rational.Rat, vars ...string) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		var cs []constraint.Constraint
		for _, v := range vars {
			cs = append(cs, randBounds(rng, pool, v)...)
		}
		if rng.Intn(3) == 0 {
			cs = append(cs, constraint.GeConst("z", rational.FromInt(int64(rng.Intn(5)))))
		}
		out[i] = relation.ConstraintTuple(constraint.And(cs...).Canon())
	}
	return out
}

// TestFrameDisjointMatchesEnvelope: the frame's pair check is
// constraint.Envelope.Disjoint over the shared attributes, on random
// envelopes with absent, empty, open, point and touching intervals in
// one to three columns, over small integers and over adversarialEndpoints.
func TestFrameDisjointMatchesEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, pool := range [][][]rational.Rat{smallInts, adversarialEndpoints()} {
		disjoint := 0
		for round := 0; round < 300; round++ {
			vars := []string{"y", "x", "w"}[:1+round%3]
			t1s := randBoundedTuples(rng, rng.Intn(10), pool, vars...)
			t2s := randBoundedTuples(rng, rng.Intn(10), pool, vars...)
			fr := frameOf(t1s, t2s, vars)
			for i := range t1s {
				for j := range t2s {
					want := t1s[i].Constraint().Envelope().Disjoint(t2s[j].Constraint().Envelope(), vars)
					if got := fr.disjoint(i, j); got != want {
						t.Fatalf("round %d: frame disjoint(%s, %s) = %v, Envelope.Disjoint = %v",
							round, t1s[i], t2s[j], got, want)
					}
					if want {
						disjoint++
					}
				}
			}
		}
		if disjoint == 0 {
			t.Fatal("no pair was disjoint; the comparison is vacuous")
		}
	}
}

// TestFrameOverlapCountMatchesBruteForce checks the frame's per-column
// overlap counter against the O(n·m) definition (Interval.Intersects semantics,
// missing interval = unbounded) on many random tuple sets, in each
// column of a two-column frame, over small integers and over
// adversarialEndpoints.
func TestFrameOverlapCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, pool := range [][][]rational.Rat{smallInts, adversarialEndpoints()} {
		for round := 0; round < 200; round++ {
			t1s := randBoundedTuples(rng, rng.Intn(12), pool, "x", "y")
			t2s := randBoundedTuples(rng, rng.Intn(12), pool, "x", "y")
			fr := frameOf(t1s, t2s, []string{"y", "x"})
			for c, v := range fr.cols {
				var want int64
				for _, a := range t1s {
					ia, _ := a.Constraint().Envelope().Interval(v) // absent = the unbounded zero Interval
					for _, b := range t2s {
						if ib, _ := b.Constraint().Envelope().Interval(v); ia.Intersects(ib) {
							want++
						}
					}
				}
				if got := fr.overlapCount(c); got != want {
					t.Fatalf("round %d column %s: overlapCount = %d, brute force = %d", round, v, got, want)
				}
			}
		}
	}
}

// TestSideHoldsNoPointers: a frame side's slices are of plain values, so
// the garbage collector never scans the keys of a large operator input.
func TestSideHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeOf(side{})
	for i := range typ.NumField() {
		f := typ.Field(i)
		ft := f.Type
		if ft.Kind() == reflect.Slice {
			ft = ft.Elem()
		}
		if hasPointers(ft) {
			t.Errorf("side.%s (%s) holds pointers", f.Name, f.Type)
		}
	}
}

// hasPointers reports whether a value of type t holds a pointer.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}

// TestFrameOverlapCountEndpoints pins the open-endpoint edge cases the
// epsilon encoding exists for: closed touch intersects, any open touch
// does not, empty intervals count nothing.
func TestFrameOverlapCountEndpoints(t *testing.T) {
	five := rational.FromInt(5)
	one := func(cs ...constraint.Constraint) []relation.Tuple {
		return []relation.Tuple{relation.ConstraintTuple(constraint.And(cs...).Canon())}
	}
	cases := []struct {
		name string
		a, b []relation.Tuple
		want int64
	}{
		{"closed-touch", one(constraint.LeConst("x", five)), one(constraint.GeConst("x", five)), 1},
		{"open-upper-touch", one(constraint.LtConst("x", five)), one(constraint.GeConst("x", five)), 0},
		{"open-lower-touch", one(constraint.LeConst("x", five)), one(constraint.GtConst("x", five)), 0},
		{"empty-side", one(constraint.GtConst("x", five), constraint.LtConst("x", five)), one(constraint.GeConst("x", five)), 0},
		{"point-point", one(constraint.EqConst("x", five)), one(constraint.EqConst("x", five)), 1},
		{"unbounded-vs-empty", one(), one(constraint.GtConst("x", five), constraint.LeConst("x", five)), 0},
	}
	for _, tc := range cases {
		fr := frameOf(tc.a, tc.b, []string{"x"})
		if got := fr.overlapCount(0); got != tc.want {
			t.Errorf("%s: overlapCount = %d, want %d", tc.name, got, tc.want)
		}
	}
}
