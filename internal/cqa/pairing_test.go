package cqa

import (
	"strings"
	"testing"

	"cdb/internal/datagen"
	"cdb/internal/exec"
	"cdb/internal/obs"
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
					withDecline(decl, func() {
						got, err := op(&exec.Context{Parallelism: par, SeqThreshold: 1}, pair[0], pair[1])
						if err != nil {
							t.Fatalf("%s %s par%d filtered: %v", wName, opName, par, err)
						}
						if dump(got) != dump(want) {
							t.Errorf("%s %s par%d decline%+v: filtered output diverges from dense\ndense:\n%s\nfiltered:\n%s",
								wName, opName, par, decl, dump(want), dump(got))
						}
					})
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
