package cqa

import (
	"math/rand"
	"strings"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/datagen"
	"cdb/internal/exec"
	"cdb/internal/obs"
	"cdb/internal/rational"
	"cdb/internal/relation"
)

// pruneInputs builds the three workload shapes the filter is designed
// around — skewed relational buckets (partition pruning), spatial clusters
// with all-NULL ids (envelope + sweep pruning), and the plain BoxRelation
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
		out, err := Project(r, "x", "y")
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

// polygonInputs are the pruneInputs rows on which auto and forced vector
// must really clip (VectorHits > 0) rather than fall back to
// Fourier-Motzkin; boxInputs the canonical box rows, on which auto must
// decide join and intersect on the envelopes alone.
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
// under auto, so it is repeated with each per-pair decider forced to
// decline (the unfiltered side is the eliminator alone, run once).
func TestPruningEquivalence(t *testing.T) {
	ops := map[string]func(ec *exec.Context, r1, r2 *relation.Relation) (*relation.Relation, error){
		"join":       JoinCtx,
		"intersect":  IntersectCtx,
		"difference": DifferenceCtx,
	}
	for wName, pair := range pruneInputs(t) {
		for opName, op := range ops {
			for _, par := range []int{1, 4} {
				want, err := op(&exec.Context{Parallelism: par, SeqThreshold: 1, NoPrune: true}, pair[0], pair[1])
				if err != nil {
					t.Fatalf("%s %s par%d dense: %v", wName, opName, par, err)
				}
				for _, decl := range declineSettings {
					for _, irrClear := range irrSettings {
						withDecline(decl, irrClear, func() {
							got, err := op(&exec.Context{Parallelism: par, SeqThreshold: 1}, pair[0], pair[1])
							if err != nil {
								t.Fatalf("%s %s par%d filtered: %v", wName, opName, par, err)
							}
							revalidate(t, wName+" "+opName, got)
							if dumpNormalised(got) != dumpNormalised(want) {
								t.Errorf("%s %s par%d decline%+v irrClear=%v: filtered output diverges from dense\ndense:\n%s\nfiltered:\n%s",
									wName, opName, par, decl, irrClear, dumpNormalised(want), dumpNormalised(got))
							}
						})
					}
				}
			}
		}
	}
}

// TestSweepMatchesDenseCandidates: the interval sweep and the dense
// bucket loop enumerate the same candidate set — forced via PlanMode,
// the plans must be identical.
func TestSweepMatchesDenseCandidates(t *testing.T) {
	p := datagen.Scaled(10)
	p.Seed = 23
	p2 := p
	p2.Seed = p.Seed + 1000
	for name, pair := range map[string][2]*relation.Relation{
		// All-NULL ids: one bucket, so the crossover decision is global.
		"clustered": {datagen.ClusteredBoxRelation(p, 40, 6, 60, 99),
			datagen.ClusteredBoxRelation(p2, 40, 6, 60, 99)},
		"skewed": {datagen.SkewedBoxRelation(p, 40, 5),
			datagen.SkewedBoxRelation(p2, 40, 5)},
	} {
		t1s, t2s := pair[0].Tuples(), pair[1].Tuples()
		sharedCon := []string{"x", "y"}
		sharedRel := []string{"id"}
		ecSweep := &exec.Context{PlanMode: exec.PlanSweep} // every bucket sweeps
		ecDense := &exec.Context{PlanMode: exec.PlanDense} // every bucket is dense
		sweep := pairCandidates(ecSweep, t1s, t2s, sharedRel, sharedCon)
		dense := pairCandidates(ecDense, t1s, t2s, sharedRel, sharedCon)
		if sweep.total != dense.total {
			t.Fatalf("%s: totals differ: %d vs %d", name, sweep.total, dense.total)
		}
		if len(sweep.cands) != len(dense.cands) {
			t.Fatalf("%s: sweep found %d candidates, dense loop %d",
				name, len(sweep.cands), len(dense.cands))
		}
		for i := range sweep.cands {
			if sweep.cands[i] != dense.cands[i] {
				t.Fatalf("%s: candidate %d differs: %d vs %d",
					name, i, sweep.cands[i], dense.cands[i])
			}
		}
		if sweep.pruned() == 0 {
			t.Errorf("%s: filter pruned nothing; the fixture is too easy", name)
		}
	}
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
	ec.InstallMetrics(reg)
	if _, err := JoinCtx(ec, r1, r2); err != nil {
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
	out, err := UnionCtx(ec, r1, r2)
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
	if _, err := UnionCtx(ecSeq, r1, r2); err != nil {
		t.Fatal(err)
	}
	if ecSeq.Stats()[0].Parallel {
		t.Error("union below SeqThreshold must not report Parallel")
	}
}

// randBounds is a random mix of envelope bounds on v: none (1 in 6),
// one-sided, two-sided (possibly empty), open or closed, or a point — so
// the frame sees every endpoint shape, touching intervals included
// (endpoints are drawn from a small range).
func randBounds(rng *rand.Rand, v string) []constraint.Constraint {
	if rng.Intn(6) == 0 {
		return nil
	}
	lo := rational.FromInt(int64(rng.Intn(21) - 10))
	hi := rational.FromInt(int64(rng.Intn(21) - 10))
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

// randBoundedTuples is n constraint tuples with randBounds on each of
// vars, and now and then a bound on an unshared z.
func randBoundedTuples(rng *rand.Rand, n int, vars ...string) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		var cs []constraint.Constraint
		for _, v := range vars {
			cs = append(cs, randBounds(rng, v)...)
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
// one to three columns.
func TestFrameDisjointMatchesEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for round := 0; round < 300; round++ {
		vars := []string{"y", "x", "w"}[:1+round%3]
		t1s := randBoundedTuples(rng, rng.Intn(10), vars...)
		t2s := randBoundedTuples(rng, rng.Intn(10), vars...)
		fr := newFrame(t1s, t2s, vars)
		for i := range t1s {
			for j := range t2s {
				want := t1s[i].Constraint().Envelope().Disjoint(t2s[j].Constraint().Envelope(), vars)
				if got := fr.disjoint(i, j); got != want {
					t.Fatalf("round %d: frame disjoint(%s, %s) = %v, Envelope.Disjoint = %v",
						round, t1s[i], t2s[j], got, want)
				}
			}
		}
	}
}

// TestFrameOverlapCountMatchesBruteForce checks the sort-and-search
// counter against the O(n·m) definition (Interval.Intersects semantics,
// missing interval = unbounded) on many random tuple sets, in each
// column of a two-column frame.
func TestFrameOverlapCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 200; round++ {
		t1s := randBoundedTuples(rng, rng.Intn(12), "x", "y")
		t2s := randBoundedTuples(rng, rng.Intn(12), "x", "y")
		fr := newFrame(t1s, t2s, []string{"y", "x"})
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
		fr := newFrame(tc.a, tc.b, []string{"x"})
		if got := fr.overlapCount(0); got != tc.want {
			t.Errorf("%s: overlapCount = %d, want %d", tc.name, got, tc.want)
		}
	}
}
