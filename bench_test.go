package cdb

// This file is the benchmark harness mandated by DESIGN.md: one bench per
// paper table/figure plus the ablation benches for the design decisions
// DESIGN.md calls out. The per-figure benches pre-build the indexing
// structures once and replay the paper's query files per iteration,
// reporting the paper's metric (disk accesses per query) as a custom
// benchmark metric, so `go test -bench=.` regenerates every figure's
// headline numbers. cmd/cdbbench renders the full bucketed series.
//
// Scale note: benches run at 1/5 of the paper scale (2,000 boxes) so the
// suite stays fast; cmd/cdbbench runs the full 10,000-box workload. The
// shapes are identical at both scales (see EXPERIMENTS.md).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"cdb/internal/calculus"
	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/datagen"
	"cdb/internal/db"
	"cdb/internal/exec"
	"cdb/internal/geometry"
	"cdb/internal/hurricane"
	"cdb/internal/query"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/rstar"
	"cdb/internal/schema"
	"cdb/internal/server"
	"cdb/internal/snapshot"
	"cdb/internal/spatial"
	"cdb/internal/storage"
)

const benchPageSize = 512

func benchParams() datagen.Params {
	return datagen.Scaled(5) // 2,000 boxes, 20+ queries
}

// figureFixture holds pre-built indexes for one experiment configuration.
type figureFixture struct {
	joint   *rstar.JointIndex
	sep     *rstar.SeparateIndex
	queries []rstar.Rect
}

var fixtureCache sync.Map // string -> *figureFixture

func getFixture(b *testing.B, key string, data, queries []rstar.Rect) *figureFixture {
	b.Helper()
	if v, ok := fixtureCache.Load(key); ok {
		return v.(*figureFixture)
	}
	joint, err := rstar.NewJointIndex(2, benchPageSize, rstar.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sep, err := rstar.NewSeparateIndex(2, benchPageSize, rstar.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i, r := range data {
		if err := joint.Add(r, int64(i)); err != nil {
			b.Fatal(err)
		}
		if err := sep.Add(r, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	f := &figureFixture{joint: joint, sep: sep, queries: queries}
	fixtureCache.Store(key, f)
	return f
}

// replay runs the query file against both strategies and reports the
// paper's metric.
func replay(b *testing.B, f *figureFixture) {
	b.Helper()
	b.ResetTimer()
	var joint, sep uint64
	var queries int
	for i := 0; i < b.N; i++ {
		for _, q := range f.queries {
			_, aj, err := f.joint.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			_, as, err := f.sep.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			joint += aj
			sep += as
			queries++
		}
	}
	b.ReportMetric(float64(joint)/float64(queries), "joint-accesses/query")
	b.ReportMetric(float64(sep)/float64(queries), "separate-accesses/query")
}

// BenchmarkFigure4A regenerates Figure 4 / experiment 1-A: constraint
// attributes, queries restricting both attributes. Expected shape: joint
// accesses well below separate.
func BenchmarkFigure4A(b *testing.B) {
	p := benchParams()
	replay(b, getFixture(b, "4A", datagen.Boxes(p), datagen.TwoAttrQueries(p)))
}

// BenchmarkFigure4B regenerates Figure 4 / experiment 1-B: relational
// attributes (degenerate boxes), two-attribute queries.
func BenchmarkFigure4B(b *testing.B) {
	p := benchParams()
	replay(b, getFixture(b, "4B", datagen.Points(p), datagen.TwoAttrQueries(p)))
}

// BenchmarkFigure5A regenerates Figure 5 / experiment 2-A: constraint
// attributes, one-attribute queries. Expected shape: separate below joint.
func BenchmarkFigure5A(b *testing.B) {
	p := benchParams()
	replay(b, getFixture(b, "5A", datagen.Boxes(p), datagen.OneAttrQueries(p, 0)))
}

// BenchmarkFigure5B regenerates Figure 5 / experiment 2-B: relational
// attributes, one-attribute queries.
func BenchmarkFigure5B(b *testing.B) {
	p := benchParams()
	replay(b, getFixture(b, "5B", datagen.Points(p), datagen.OneAttrQueries(p, 0)))
}

// BenchmarkExperiment3 regenerates the inferred 500-query mixed workload.
func BenchmarkExperiment3(b *testing.B) {
	p := benchParams()
	p.NumQueries *= 5
	replay(b, getFixture(b, "E3", datagen.Boxes(p), datagen.MixedQueries(p)))
}

// BenchmarkCornerCase regenerates the §5.3 adversarial workload: the gap
// between the two metrics is the paper's "linear to logarithmic" claim.
func BenchmarkCornerCase(b *testing.B) {
	p := benchParams()
	var queries []rstar.Rect
	for i := 0; i < p.NumQueries; i++ {
		a := p.CoordMax * float64(i+1) / float64(p.NumQueries+1)
		queries = append(queries, rstar.Rect2(-1e308, a, a, 1e308))
	}
	replay(b, getFixture(b, "corner", datagen.DiagonalBoxes(p), queries))
}

// --- ablation benches (DESIGN.md §6) ---

// BenchmarkAblationReinsert quantifies R* forced reinsertion: the same
// workload on trees built with and without it.
func BenchmarkAblationReinsert(b *testing.B) {
	p := benchParams()
	data := datagen.Boxes(p)
	queries := datagen.TwoAttrQueries(p)
	for _, cfg := range []struct {
		name string
		opts rstar.Options
	}{
		{"reinsert-on", rstar.Options{}},
		{"reinsert-off", rstar.Options{DisableReinsert: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			joint, err := rstar.NewJointIndex(2, benchPageSize, cfg.opts)
			if err != nil {
				b.Fatal(err)
			}
			for i, r := range data {
				if err := joint.Add(r, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var accesses uint64
			var n int
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					_, a, err := joint.Query(q)
					if err != nil {
						b.Fatal(err)
					}
					accesses += a
					n++
				}
			}
			b.ReportMetric(float64(accesses)/float64(n), "accesses/query")
		})
	}
}

// BenchmarkAblationDifferencePruning: tuple difference with eager vs. lazy
// satisfiability pruning of the complement expansion.
func BenchmarkAblationDifferencePruning(b *testing.B) {
	mkBox := func(lo int64) constraint.Conjunction {
		return constraint.And(
			constraint.GeConst("x", rational.FromInt(lo)),
			constraint.LeConst("x", rational.FromInt(lo+4)),
			constraint.GeConst("y", rational.FromInt(lo)),
			constraint.LeConst("y", rational.FromInt(lo+4)),
		)
	}
	big := mkBox(0)
	sub := constraint.And(
		constraint.GeConst("x", rational.FromInt(1)),
		constraint.LeConst("x", rational.FromInt(2)),
		constraint.GeConst("y", rational.FromInt(1)),
		constraint.LeConst("y", rational.FromInt(2)),
	)
	b.Run("eager-prune", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := constraint.Subtract(big, sub)
			b.ReportMetric(float64(len(d)), "disjuncts")
		}
	})
	b.Run("lazy-prune", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := constraint.SubtractLazy(big, sub)
			b.ReportMetric(float64(len(d)), "disjuncts")
		}
	})
}

// BenchmarkAblationBufferJoinIndex: plain O(n·m) Buffer-Join vs. the
// R*-tree-accelerated variant.
func BenchmarkAblationBufferJoinIndex(b *testing.B) {
	mkLayers := func() (*spatial.Layer, *spatial.Layer) {
		a, c := spatial.NewLayer("a"), spatial.NewLayer("b")
		for i := 0; i < 150; i++ {
			x := int64((i * 37) % 900)
			y := int64((i * 53) % 900)
			a.MustAdd(spatial.Feature{ID: fmt.Sprintf("a%d", i),
				Geom: spatial.RegionGeom(geometry.RectPoly(x, y, x+8, y+8))})
			c.MustAdd(spatial.Feature{ID: fmt.Sprintf("b%d", i),
				Geom: spatial.PointGeom(geometry.Pt((x+400)%900, (y+300)%900))})
		}
		return a, c
	}
	l1, l2 := mkLayers()
	d := rational.FromInt(25)
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := spatial.BufferJoin(l1, l2, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := spatial.BufferJoinIndexed(l1, l2, d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBulkLoad compares query accesses on an STR bulk-loaded
// tree vs. the same data inserted one at a time (node fill / clustering
// effect).
func BenchmarkAblationBulkLoad(b *testing.B) {
	p := benchParams()
	data := datagen.Boxes(p)
	queries := datagen.TwoAttrQueries(p)
	items := make([]rstar.BulkItem, len(data))
	for i, r := range data {
		items[i] = rstar.BulkItem{Rect: r, Data: int64(i)}
	}
	run := func(b *testing.B, tree *rstar.Tree, pager *storage.MemPager) {
		b.Helper()
		b.ResetTimer()
		var accesses uint64
		var n int
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				before := pager.Stats().Reads
				if _, err := tree.Search(q); err != nil {
					b.Fatal(err)
				}
				accesses += pager.Stats().Reads - before
				n++
			}
		}
		b.ReportMetric(float64(accesses)/float64(n), "accesses/query")
	}
	b.Run("bulk-str", func(b *testing.B) {
		pager := storage.NewMemPager(benchPageSize)
		tree, err := rstar.BulkLoad(pager, 2, items, rstar.Options{})
		if err != nil {
			b.Fatal(err)
		}
		run(b, tree, pager)
	})
	b.Run("incremental", func(b *testing.B) {
		pager := storage.NewMemPager(benchPageSize)
		tree, err := rstar.New(pager, 2, rstar.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range items {
			if err := tree.Insert(it.Rect, it.Data); err != nil {
				b.Fatal(err)
			}
		}
		run(b, tree, pager)
	})
}

// --- core-engine micro benches (throughput context for the figures) ---

func benchRelation(n int) *relation.Relation {
	s := schema.MustNew(schema.Rel("id", schema.String), schema.Con("x"), schema.Con("y"))
	r := relation.New(s)
	for i := 0; i < n; i++ {
		lo := int64(i % 100)
		r.MustAdd(relation.NewTuple(
			map[string]relation.Value{"id": relation.Str(fmt.Sprintf("f%d", i))},
			constraint.And(
				constraint.GeConst("x", rational.FromInt(lo)),
				constraint.LeConst("x", rational.FromInt(lo+10)),
				constraint.GeConst("y", rational.FromInt(lo/2)),
				constraint.LeConst("y", rational.FromInt(lo/2+10)),
			)))
	}
	return r
}

// BenchmarkCQASelect measures select throughput over constraint tuples.
func BenchmarkCQASelect(b *testing.B) {
	r := benchRelation(500)
	cond := cqa.Condition{cqa.AttrCmpConst("x", cqa.OpLe, rational.FromInt(50))}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cqa.Select(r, cond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCQAProject measures projection (Fourier-Motzkin per tuple).
func BenchmarkCQAProject(b *testing.B) {
	r := benchRelation(500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cqa.Project(r, "id", "x"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCQAJoin measures the natural join of two 60-tuple relations.
func BenchmarkCQAJoin(b *testing.B) {
	r1 := benchRelation(60)
	r2 := benchRelation(60)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cqa.Join(r1, r2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryParse measures the ASCII front end.
func BenchmarkQueryParse(b *testing.B) {
	src := `R0 = join Landownership and Land
R1 = join R0 and Hurricane
R2 = select t >= 4, t <= 9, x + 2y <= 30 from R1
R3 = project R2 on name`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := query.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHurricaneSuite runs all five case-study queries end to end.
func BenchmarkHurricaneSuite(b *testing.B) {
	d := hurricane.Build()
	qs := hurricane.Queries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, nq := range qs {
			if _, err := d.Run(nq.Text); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- parallel execution benches (internal/exec worker pool) ---

// parBenchInputs builds two workload-derived constraint relations with no
// shared relational attribute, so the natural join degenerates to the
// worst case: every one of the n×n tuple pairs reaches the merge +
// satisfiability check that the exec layer fans out.
func parBenchInputs(b *testing.B, n int) (*relation.Relation, *relation.Relation) {
	b.Helper()
	p := datagen.Scaled(10)
	r1 := datagen.BoxRelation(p, n, 0)
	p2 := p
	p2.Seed += 1000
	r2, err := cqa.Rename(datagen.BoxRelation(p2, n, 0), "id", "id2")
	if err != nil {
		b.Fatal(err)
	}
	return r1, r2
}

// parWorkerCounts are the pool sizes the parallel benches sweep; compare
// workers=1 (sequential) against workers=4 for the speedup headline.
var parWorkerCounts = []int{1, 2, 4}

func benchOpParallel(b *testing.B, run func(ec *exec.Context) error) {
	b.Helper()
	for _, workers := range parWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ec := exec.New(workers)
			ec.SeqThreshold = 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(ec); err != nil {
					b.Fatal(err)
				}
				ec.Reset()
			}
		})
	}
}

// BenchmarkJoinParallel: natural join over 40×40 = 1,600 tuple pairs,
// every pair satisfiability-checked, at 1/2/4 workers.
func BenchmarkJoinParallel(b *testing.B) {
	r1, r2 := parBenchInputs(b, 40)
	benchOpParallel(b, func(ec *exec.Context) error {
		_, err := cqa.JoinCtx(ec, r1, r2)
		return err
	})
}

// BenchmarkIntersectParallel: intersection (join of equal schemas) of two
// 40-tuple relations.
func BenchmarkIntersectParallel(b *testing.B) {
	p := datagen.Scaled(10)
	r1 := datagen.BoxRelation(p, 40, 0)
	p2 := p
	p2.Seed += 1000
	r2 := datagen.BoxRelation(p2, 40, 0)
	benchOpParallel(b, func(ec *exec.Context) error {
		_, err := cqa.IntersectCtx(ec, r1, r2)
		return err
	})
}

// BenchmarkSelectParallel: selection with a !=-split atom over 1,000
// constraint tuples.
func BenchmarkSelectParallel(b *testing.B) {
	p := datagen.Scaled(1)
	r := datagen.BoxRelation(p, 1000, 0)
	cond := cqa.Condition{
		cqa.AttrCmpConst("x", cqa.OpLe, rational.FromInt(1500)),
		cqa.AttrCmpConst("y", cqa.OpNe, rational.FromInt(700)),
	}
	benchOpParallel(b, func(ec *exec.Context) error {
		_, err := cqa.SelectCtx(ec, r, cond)
		return err
	})
}

// BenchmarkDifferenceParallel: difference with repeated relational parts
// (idMod 8), so tuples subtract full complement expansions.
func BenchmarkDifferenceParallel(b *testing.B) {
	p := datagen.Scaled(10)
	r1 := datagen.BoxRelation(p, 120, 8)
	p2 := p
	p2.Seed += 1000
	r2 := datagen.BoxRelation(p2, 60, 8)
	benchOpParallel(b, func(ec *exec.Context) error {
		_, err := cqa.DifferenceCtx(ec, r1, r2)
		return err
	})
}

// BenchmarkJoinTupleMerge compares the fused single-allocation relational
// merge (relation.JoinTuple, what joinCtx's refine step uses) against the
// two-copy shape it replaced: t1.RVals() + overlaying t2.RVals() + a
// defensive NewTuple copy. Run with -benchmem; the fused path allocates
// one map where the old shape allocated three.
func BenchmarkJoinTupleMerge(b *testing.B) {
	con := constraint.And(
		constraint.GeConst("x", rational.FromInt(10)),
		constraint.LeConst("x", rational.FromInt(90)),
		constraint.GeConst("y", rational.FromInt(20)),
		constraint.LeConst("y", rational.FromInt(80)),
	).Canon()
	t1 := relation.NewTuple(map[string]relation.Value{
		"id": relation.Str("b1"), "owner": relation.Str("alice"),
	}, con)
	t2 := relation.NewTuple(map[string]relation.Value{
		"id": relation.Str("b1"), "parcel": relation.Str("p9"),
	}, con)
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = relation.JoinTuple(t1, t2, con)
		}
	})
	b.Run("two-copy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := t1.RVals()
			for k, v := range t2.RVals() {
				m[k] = v
			}
			_ = relation.NewTuple(m, con)
		}
	})
}

// BenchmarkCanonMerge measures the refine step's first half, Merge+Canon of
// two canonical 4-atom boxes — the price the closure principle charges per
// emitted tuple. Run with -benchmem: one render per surviving atom, no
// string inside the fold, the sort or the fingerprint (46 allocations per
// op when each of them built strings; internal/constraint's
// TestMergeCanonAllocs holds the ceiling at 24).
func BenchmarkCanonMerge(b *testing.B) {
	boxes := benchRelation(64).Tuples()
	cons := make([]constraint.Conjunction, len(boxes))
	for i, t := range boxes {
		cons[i] = t.Constraint().Canon()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cons[i%len(cons)].Merge(cons[(i+7)%len(cons)]).Canon()
	}
}

// BenchmarkSorted measures the result tail's ordering step on a 300-tuple
// relation with 10 distinct relational parts (so most comparisons fall
// through to the constraint rendering): both keys are computed once per
// tuple and the comparator only compares them.
func BenchmarkSorted(b *testing.B) {
	src := benchRelation(300)
	r := relation.New(src.Schema())
	for i, t := range src.Tuples() {
		r.MustAdd(t.WithRVal("id", relation.Str(fmt.Sprintf("f%d", i%10))).Canon())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Sorted()
	}
}

// BenchmarkJoinPruning: the filter-and-refine join against the dense
// nested loop on the skewed-bucket workload (Zipf relational ids, boxes
// over the full coordinate range) — the shape the candidate filter is
// built for.
func BenchmarkJoinPruning(b *testing.B) {
	p := datagen.Scaled(10)
	r1 := datagen.SkewedBoxRelation(p, 64, 12)
	p2 := p
	p2.Seed += 1000
	r2 := datagen.SkewedBoxRelation(p2, 64, 12)
	for name, noPrune := range map[string]bool{"filtered": false, "dense": true} {
		b.Run(name, func(b *testing.B) {
			ec := &exec.Context{Parallelism: 1, NoPrune: noPrune}
			for i := 0; i < b.N; i++ {
				if _, err := cqa.JoinCtx(ec, r1, r2); err != nil {
					b.Fatal(err)
				}
				ec.Reset()
			}
		})
	}
}

// BenchmarkPairingModes: join and intersect under forced dense and under
// auto, one worker, no cache, on the two shapes the per-pair deciders
// split on — dense boxes (one tight cluster of large boxes, nearly every
// pair overlaps, nothing to prune: the envelope decider's) and one cluster
// of convex polygons (the clip decider's). Wall time is the benchmark's;
// what it checks, on the deterministic counters of each row's last run, is
// that auto never does more eliminations or clips than dense does
// eliminations, does neither on the box rows, and clips on the polygon rows
// (internal/vector's tests hold the clipper to BoxMerge on boxes).
func BenchmarkPairingModes(b *testing.B) {
	p := datagen.Paper()
	p.SizeMin = 50
	p2 := p
	p2.Seed += 1000
	shapes := []struct {
		name   string
		r1, r2 *relation.Relation
	}{
		{"boxes", datagen.ClusteredBoxRelation(p, 96, 1, 10, p.Seed+77), datagen.ClusteredBoxRelation(p2, 96, 1, 10, p.Seed+77)},
		{"polygons", datagen.PolygonRelation(p, 32, 1, 60, p.Seed+77), datagen.PolygonRelation(p2, 32, 1, 60, p.Seed+77)},
	}
	ops := []struct {
		name string
		run  func(*exec.Context, *relation.Relation, *relation.Relation) (*relation.Relation, error)
	}{{"join", cqa.JoinCtx}, {"intersect", cqa.IntersectCtx}}
	modes := []string{exec.PlanDense, exec.PlanAuto}
	for _, shape := range shapes {
		r1, r2 := datagen.Canonical(shape.r1), datagen.Canonical(shape.r2)
		for _, op := range ops {
			last := map[string]exec.OpStats{} // per mode; a -bench filter may leave some out
			for _, mode := range modes {
				b.Run(shape.name+"/"+op.name+"/"+mode, func(b *testing.B) {
					ec := &exec.Context{Parallelism: 1, PlanMode: mode}
					for i := 0; i < b.N; i++ {
						ec.Reset()
						if _, err := op.run(ec, r1, r2); err != nil {
							b.Fatal(err)
						}
					}
					last[mode] = ec.Stats()[0]
				})
			}
			auto, ok := last[exec.PlanAuto]
			if !ok {
				continue
			}
			row := shape.name + "/" + op.name
			for mode, s := range last {
				if auto.FMDecisions+auto.VectorHits > s.FMDecisions+s.VectorHits {
					b.Errorf("%s: auto ran %d eliminations + %d clips, forced %s only %d + %d",
						row, auto.FMDecisions, auto.VectorHits, mode, s.FMDecisions, s.VectorHits)
				}
			}
			cands := auto.PairsTotal - auto.PairsPruned
			switch {
			case cands == 0:
				b.Errorf("%s: no candidate pairs", row)
			case shape.name == "boxes" && (auto.EnvHits != cands || auto.VectorHits != 0 || auto.FMDecisions != 0):
				b.Errorf("%s: auto decided %d of %d candidate pairs on the envelopes (%d clips, %d eliminations), want all of them",
					row, auto.EnvHits, cands, auto.VectorHits, auto.FMDecisions)
			case shape.name == "polygons" && (auto.VectorHits == 0 || auto.EnvHits != 0):
				b.Errorf("%s: auto clipped %d pairs (env %d), want some clipped and none on the envelopes", row, auto.VectorHits, auto.EnvHits)
			}
		}
	}
}

// polygonMinusResult and boxJoinResult are operator outputs of the two
// shapes whose normalisation used to dominate the daemon's query time
// (benchmark workloads polygon-minus and box-join): the difference of two
// clustered convex-polygon relations — DNF staircase pieces, which the
// operator emits already stripped of the atoms the planar rule drops — and
// the raw join of two dense clustered box relations. Both have only
// two-variable constraint parts.
func polygonMinusResult(tb testing.TB) *relation.Relation {
	r1, r2 := polygonMinusInputs()
	out, err := cqa.Difference(r1, r2)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// polygonMinusInputs are polygonMinusResult's operands: twelve small
// clusters of two convex polygons a side, cluster c of both sides around
// one centre — the occupancy the benchmark fixes.
func polygonMinusInputs() (r1, r2 *relation.Relation) {
	side := func(seed int64) *relation.Relation {
		var out *relation.Relation
		for c := int64(0); c < 12; c++ {
			p := datagen.Paper()
			p.Seed = seed + c
			r := datagen.PolygonRelation(p, 2, 1, 60, 977+c)
			if out == nil {
				out = relation.New(r.Schema())
			}
			for _, t := range r.Tuples() {
				out.MustAdd(t)
			}
		}
		return out
	}
	return side(1600), side(2600)
}

// polygonMinusPieces is polygonMinusResult's difference with every piece
// as the staircase builds it, redundant atoms and all (on average 9.1
// atoms, 3.8 of them irredundant): constraint.SubtractAll of the
// subtrahends that meet each minuend, in input order, which is what the
// operator walks. It is the fixture of the normalisation guards, which must
// keep exercising the planar rule on pieces it has work to do on.
func polygonMinusPieces(tb testing.TB) *relation.Relation {
	r1, r2 := polygonMinusInputs()
	out := relation.New(r1.Schema())
	for _, t1 := range r1.Tuples() {
		var ks []constraint.Conjunction
		for _, t2 := range r2.Tuples() {
			if t1.Constraint().Merge(t2.Constraint()).IsSatisfiable() {
				ks = append(ks, t2.Constraint())
			}
		}
		for _, piece := range constraint.SubtractAll(t1.Constraint(), ks) {
			if err := out.Add(t1.WithConstraint(piece)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return out
}

func boxJoinResult(tb testing.TB) *relation.Relation {
	p := datagen.Paper()
	p.SizeMin = 50
	p.Seed = 16
	p2 := p
	p2.Seed += 500
	out, err := cqa.Join(datagen.ClusteredBoxRelation(p, 20, 1, 10, 77), datagen.ClusteredBoxRelation(p2, 20, 1, 10, 77))
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

func benchNormalize(b *testing.B, r *relation.Relation) {
	ec := exec.New(1)
	ec.SatCache = constraint.NewSatCache(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.NormalizeWith(ec.SatFunc())
	}
}

// BenchmarkNormalizePolygonMinus and BenchmarkNormalizeBoxJoin measure the
// result tail's normalisation as the server runs it (through the server's
// sat-cache) on two-variable operator outputs: the planar rule of
// constraint.SimplifyWith decides every tuple, so neither asks the cache or
// eliminates a variable (TestNormalizeMakesNoDecisions holds that). The
// polygon-minus rows are the staircase's pieces as built (raw) and as the
// difference operator emits them (reduced), on which the rule finds
// nothing left to drop.
func BenchmarkNormalizePolygonMinus(b *testing.B) {
	b.Run("raw", func(b *testing.B) { benchNormalize(b, polygonMinusPieces(b)) })
	b.Run("reduced", func(b *testing.B) { benchNormalize(b, polygonMinusResult(b)) })
}
func BenchmarkNormalizeBoxJoin(b *testing.B) { benchNormalize(b, boxJoinResult(b)) }

// benchClusteredPolygons repeats the repository benchmark's polygon-minus
// generator (benchmark/workloads.go clusteredPolygons at seed 1): twelve
// clusters of perCluster polygons each, 60 wide.
func benchClusteredPolygons(rel, perCluster int, gen func(datagen.Params, int, int, float64, int64) *relation.Relation) *relation.Relation {
	var out *relation.Relation
	for c := 0; c < 12; c++ {
		p := datagen.Paper()
		p.Seed = 100000 + int64(rel)*1000 + int64(c)
		r := gen(p, perCluster, 1, 60, 977+int64(c))
		if out == nil {
			out = relation.New(r.Schema())
		}
		for _, t := range r.Tuples() {
			out.MustAdd(t.Canon()) // as a loaded database holds them: forms memoised
		}
	}
	return out
}

// BenchmarkDifferencePolygonMinus is one request of the polygon-minus
// workload without the server around it: `minus C0 and D0` on warm
// canonical-form memos. Every decision runs on the vector path, so this is
// the guard for the staircase scope, ClipRing and the rational kernel
// together.
func BenchmarkDifferencePolygonMinus(b *testing.B) {
	c0 := benchClusteredPolygons(0, 2, datagen.PolygonRelation)
	d0 := benchClusteredPolygons(100, 2, datagen.PolygonRelation)
	ec := exec.New(1)
	ec.SatCache = constraint.NewSatCache(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cqa.DifferenceCtx(ec, c0, d0); err != nil {
			b.Fatal(err)
		}
		ec.Reset()
	}
}

// BenchmarkClipRing is the vector path's kernel: one Sutherland–Hodgman
// clip of an octagon by a half-plane that cuts it (two exact crossings),
// one that keeps all of it and one that keeps none (both allocation-free),
// and the staircase's split of the octagon into both sides of the cutting
// line (the same two crossings, one allocation).
func BenchmarkClipRing(b *testing.B) {
	ring := geometry.MustPolygon(
		geometry.Pt(3, 0), geometry.Pt(7, 0), geometry.Pt(10, 3), geometry.Pt(10, 7),
		geometry.Pt(7, 10), geometry.Pt(3, 10), geometry.Pt(0, 7), geometry.Pt(0, 3),
	).Vertices()
	hp := func(a, b, c int64) geometry.HalfPlane {
		return geometry.HalfPlane{A: rational.FromInt(a), B: rational.FromInt(b), C: rational.FromInt(c)}
	}
	for _, c := range []struct {
		name string
		h    geometry.HalfPlane
	}{
		{"cut", hp(3, 7, -50)},
		{"keep-all", hp(1, 1, -40)},
		{"keep-none", hp(1, 1, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchRing = geometry.ClipRing(ring, c.h)
			}
		})
	}
	b.Run("split", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchRing = geometry.Split(ring, hp(3, 7, -50), geometry.Le|geometry.Ge).Ge
		}
	})
}

var benchRing []geometry.Point

// loadedDB holds the relations the way a session sees them: saved and
// loaded again, so every tuple is canonical with its memos attached.
func loadedDB(tb testing.TB, rels map[string]*relation.Relation) *db.Database {
	tb.Helper()
	raw := db.New()
	names := make([]string, 0, len(rels))
	for name := range rels {
		names = append(names, name)
	}
	sort.Strings(names) // Save writes in Put order
	for _, name := range names {
		if err := raw.Put(name, rels[name]); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := raw.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	d, err := db.Load(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// churnDB is a database of the shape the benchmark's snapshot-churn
// workload commits and materialises: the hurricane case study on a 5×5
// parcel grid (25 + 75 tuples with relational parts, the track) beside a
// 1536-box relation, canonical as a loaded file is.
func churnDB(tb testing.TB) *db.Database {
	tb.Helper()
	land, owners, track := datagen.HurricaneRelations(5)
	p := datagen.Paper()
	p.SizeMin, p.Seed = 50, 41
	return loadedDB(tb, map[string]*relation.Relation{
		"Land": land, "Landownership": owners, "Hurricane": track, "Boxes": datagen.BoxRelation(p, 1536, 0)})
}

// BenchmarkHurricaneQuery3Warm is one request of the benchmark's hurricane
// workload without the server around it: the paper's Query 3 (join → join →
// select → project, then the result tail's normalisation) on 8 × 8 parcels,
// statement by statement as a session runs it, under one session-lifetime
// context — default sat-cache — that has already seen every window. The
// windows rotate over the 31 starts the request pool draws from, so every
// pair decision of every iteration is a remembered one. one-worker runs every
// operator inline; pool runs at a default session's worker count
// (exec.New(0): GOMAXPROCS), where the first join's 192 candidates go to the
// pool, as they do in the daemon.
func BenchmarkHurricaneQuery3Warm(b *testing.B) {
	d, progs := hurricaneQuery3(b)
	for _, leg := range warmLegs {
		b.Run(leg.name, func(b *testing.B) {
			ec := exec.New(leg.workers)
			ec.SatCache = constraint.NewSatCache(0)
			for a := range progs {
				runQuery3(b, d, ec, progs, a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runQuery3(b, d, ec, progs, i%len(progs))
			}
		})
	}
}

// BenchmarkHurricaneQuery3Cold is BenchmarkHurricaneQuery3Warm's request on a
// cold session: each iteration runs one window under a fresh exec.Context
// (one worker) and a fresh sat-cache, made outside the timer, so every pair
// the filter keeps is merged, canonicalised and decided by Fourier–Motzkin.
// The loaded relations keep their canonical forms and envelopes across
// iterations, as a loaded database does. It is the cold path's instrument:
// what a decision costs in time and allocations (ROADMAP items 11 and 13).
func BenchmarkHurricaneQuery3Cold(b *testing.B) {
	d, progs := hurricaneQuery3(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ec := exec.New(1)
		ec.SatCache = constraint.NewSatCache(0)
		b.StartTimer()
		runQuery3(b, d, ec, progs, i%len(progs))
	}
}

// hurricaneQuery3 loads the 8 × 8 hurricane database and parses Query 3 at
// each of the 31 window starts the benchmark's request pool draws from
// (horizon − window length + 1), one program per statement.
func hurricaneQuery3(b *testing.B) (*db.Database, [][]*query.Program) {
	land, owners, track := datagen.HurricaneRelations(8)
	d := loadedDB(b, map[string]*relation.Relation{"Land": land, "Landownership": owners, "Hurricane": track})
	progs := make([][]*query.Program, 31)
	for a := range progs {
		prog, err := query.Parse(fmt.Sprintf("R0 = join Landownership and Land\nR1 = join R0 and Hurricane\n"+
			"R2 = select t >= %d, t <= %d from R1\nR3 = project R2 on name", a, a+10))
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range prog.Stmts {
			progs[a] = append(progs[a], &query.Program{Stmts: []query.Stmt{st}})
		}
	}
	return d, progs
}

// runQuery3 runs window a's statements on ec as a session does, normalises
// the last result and resets ec's statistics.
func runQuery3(b *testing.B, d *db.Database, ec *exec.Context, progs [][]*query.Program, a int) {
	env := d.Env()
	var last *relation.Relation
	for _, one := range progs[a] {
		r, err := one.RunOptimizedCtx(env, ec)
		if err != nil {
			b.Fatal(err)
		}
		env[one.Stmts[0].Target], last = r, r
	}
	if last.NormalizeWith(ec.SatFunc()).Len() == 0 {
		b.Fatalf("window %d: empty result", a)
	}
	ec.Reset()
}

// warmLegs are the worker counts the warm in-process benchmarks run at: one
// worker, and a default session's pool (exec.New(0), GOMAXPROCS workers).
var warmLegs = []struct {
	name    string
	workers int
}{{"one-worker", 1}, {"pool", 0}}

// BenchmarkHurricaneServer is BenchmarkHurricaneQuery3Warm's request as the
// daemon serves it, without the network: POST /v1/query of the whole Query 3
// program through server.Handler, against the database saved and loaded
// again as text (what cqacdbd -db reads), with the windows rotating over the
// 31 starts so every pair decision is a remembered one. It is the profile
// harness of the daemon path: parse, plan, the operators, normalisation,
// ordering and the encoded reply. one-session runs every request on one
// session; fresh-session opens a new session for each request and closes it
// after, so what the request remembers is what the server's sat-cache holds,
// not what its session paid for.
func BenchmarkHurricaneServer(b *testing.B) {
	land, owners, track := datagen.HurricaneRelations(8)
	d := loadedDB(b, map[string]*relation.Relation{"Land": land, "Landownership": owners, "Hurricane": track})
	const starts = 31
	progs := make([]string, starts)
	for a := range progs {
		progs[a] = fmt.Sprintf("R0 = join Landownership and Land\nR1 = join R0 and Hurricane\n"+
			"R2 = select t >= %d, t <= %d from R1\nR3 = project R2 on name", a, a+10)
	}
	for _, fresh := range []bool{false, true} {
		b.Run(map[bool]string{false: "one-session", true: "fresh-session"}[fresh], func(b *testing.B) {
			srv := server.New(map[string]*db.Database{"hurricane": d}, server.Config{SessionIdleTimeout: -1})
			b.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
			h := srv.Handler()
			serve := func(method, target, body string, want int) *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
				if rec.Code != want {
					b.Fatalf("%s %s: %d %s", method, target, rec.Code, rec.Body)
				}
				return rec
			}
			open := func() string {
				var info struct {
					ID string `json:"id"`
				}
				if err := json.Unmarshal(serve(http.MethodPost, "/v1/sessions", `{"par": 1}`, http.StatusCreated).Body.Bytes(), &info); err != nil {
					b.Fatal(err)
				}
				return info.ID
			}
			body := func(id string, a int) string {
				return fmt.Sprintf(`{"session": %q, "query": %q}`, id, progs[a])
			}
			post := func(body string) {
				if rec := serve(http.MethodPost, "/v1/query", body, http.StatusOK); !strings.Contains(rec.Body.String(), `(name=`) {
					b.Fatalf("%s: %s", body, rec.Body)
				}
			}
			session := open()
			bodies := make([]string, starts)
			for a := range bodies {
				bodies[a] = body(session, a)
				post(bodies[a])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !fresh {
					post(bodies[i%starts])
					continue
				}
				id := open()
				post(body(id, i%starts))
				serve(http.MethodDelete, "/v1/sessions/"+id, "", http.StatusOK)
			}
		})
	}
}

// BenchmarkHurricaneRuleWarm is BenchmarkHurricaneQuery3Warm's request asked
// through the calculus face: the same join as one three-atom rule (parse
// excluded, normalisation included), same database, same rotating windows,
// same session-lifetime context. The two are one language with two faces
// (§2.2), so this one should cost what that one does; it costs 2.5–3.6×
// on a shared 2-core host (ROADMAP item 19: its renamed atoms are fresh
// relations on every request).
func BenchmarkHurricaneRuleWarm(b *testing.B) {
	land, owners, track := datagen.HurricaneRelations(8)
	d := loadedDB(b, map[string]*relation.Relation{"Land": land, "Landownership": owners, "Hurricane": track})
	const starts = 31
	progs := make([]*calculus.Program, starts)
	for a := range progs {
		prog, err := calculus.Parse(fmt.Sprintf(
			"hit(name) :- Landownership(name, t, id), Land(id, x, y), Hurricane(t, x, y), t >= %d, t <= %d.", a, a+10))
		if err != nil {
			b.Fatal(err)
		}
		progs[a] = prog
	}
	ec := exec.New(1)
	ec.SatCache = constraint.NewSatCache(0)
	run := func(a int) {
		out, err := progs[a].RunCtx(d.Env(), ec)
		if err != nil {
			b.Fatal(err)
		}
		if out.Len() == 0 {
			b.Fatalf("window %d: empty result", a)
		}
		ec.Reset()
	}
	for a := range progs {
		run(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i % starts)
	}
}

// BenchmarkBoxJoinWarm is one request of the benchmark's box-join workload
// without the server around it: each of its three forms (join, intersect,
// join projected on x) on two dense 20-box relations as a session holds
// them, with the result tail's normalisation, under one session-lifetime
// context, at one worker and at a default session's pool (warmLegs). Every
// candidate pair is two boxes over the shared x and y, so this is the
// envelope decider end to end: interval merge, a projection that drops
// bounds, a normalisation that finds nothing to do.
func BenchmarkBoxJoinWarm(b *testing.B) {
	d, forms := boxJoinForms(b)
	for _, form := range forms {
		for _, leg := range warmLegs {
			b.Run(form.name+"/"+leg.name, func(b *testing.B) {
				ec := exec.New(leg.workers)
				ec.SatCache = constraint.NewSatCache(0)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					form.run(b, d, ec)
				}
			})
		}
	}
}

// boxJoinForm is one of the box-join workload's three request forms.
type boxJoinForm struct {
	name string
	prog *query.Program
}

// boxJoinForms loads the box-join workload's two relations as a session
// holds them and parses its three request forms.
func boxJoinForms(tb testing.TB) (*db.Database, []boxJoinForm) {
	p := datagen.Paper()
	p.SizeMin, p.Seed = 50, 16
	p2 := p
	p2.Seed += 500
	d := loadedDB(tb, map[string]*relation.Relation{
		"A": datagen.ClusteredBoxRelation(p, 20, 1, 10, 77), "B": datagen.ClusteredBoxRelation(p2, 20, 1, 10, 77)})
	var forms []boxJoinForm
	for _, form := range [][2]string{{"join", "join A and B"}, {"intersect", "intersect A and B"},
		{"project", "project (join A and B) on x"}} {
		prog, err := query.Parse("R = " + form[1])
		if err != nil {
			tb.Fatal(err)
		}
		forms = append(forms, boxJoinForm{form[0], prog})
	}
	return d, forms
}

// run is one warm request of the form on d under ec: the statement and the
// result tail's normalisation.
func (f boxJoinForm) run(tb testing.TB, d *db.Database, ec *exec.Context) {
	r, err := f.prog.RunOptimizedCtx(d.Env(), ec)
	if err != nil {
		tb.Fatal(err)
	}
	if r.NormalizeWith(ec.SatFunc()).Len() == 0 {
		tb.Fatal("empty result")
	}
	ec.Reset()
}

// TestBoxJoinWarmBytes puts a ceiling on the heap bytes of one warm
// box-join request on the pool (BenchmarkBoxJoinWarm's pool leg, at two
// workers so that the pool runs at the one processor the count is taken
// at), per form. The fan-out writes into one buffer of one result per
// candidate and hands it on, a box is one allocation in its size class,
// and normalisation remembers a rendering and one span per row, not a
// second copy of every tuple; per-worker slices grown by doubling and
// concatenated, a box block a size class up, or a []Row memo cannot come
// back under it. The ceilings are the figures when they were set (medians
// of three runs on a 2-core host) plus 15 %: under -race, where a sync.Pool
// drops some of what it is handed, the render buffer is allocated again in
// about one request of four (join read 219 KB).
func TestBoxJoinWarmBytes(t *testing.T) {
	d, forms := boxJoinForms(t)
	ceilings := map[string]struct{ set, parent, ceiling float64 }{
		"join":      {204, 333, 235},
		"intersect": {208, 327, 240},
		"project":   {293, 542, 337},
	}
	for _, form := range forms {
		ec := exec.New(2)
		ec.SatCache = constraint.NewSatCache(0)
		form.run(t, d, ec)
		if !ec.ParallelFor(400) {
			t.Fatal("two workers do not reach the pool")
		}
		var m0, m1 runtime.MemStats
		const runs = 10
		runtime.ReadMemStats(&m0)
		for range runs {
			form.run(t, d, ec)
		}
		runtime.ReadMemStats(&m1)
		kb := float64(m1.TotalAlloc-m0.TotalAlloc) / runs / 1024
		c := ceilings[form.name]
		t.Logf("%s: %.1f KB per request (%.0f when set; %.0f with per-worker output slices, 320 B box blocks and a []Row memo), ceiling %.0f KB", form.name, kb, c.set, c.parent, c.ceiling)
		if kb > c.ceiling {
			t.Errorf("warm box-join %s on the pool: %.1f KB per request, ceiling %.0f KB", form.name, kb, c.ceiling)
		}
	}
}

// BenchmarkQueryReply is the result tail of a box-join request as the
// daemon serves it, without the network: POST /v1/query of `R = J` on a
// session whose database holds boxJoinResult normalised, so the request
// scans, re-normalises (dropping nothing), orders, renders and
// encodes every tuple into an in-memory response — as one JSON body, and
// as an NDJSON stream.
func BenchmarkQueryReply(b *testing.B) {
	d := loadedDB(b, map[string]*relation.Relation{"J": boxJoinResult(b).Normalize()})
	srv := server.New(map[string]*db.Database{"box": d}, server.Config{SessionIdleTimeout: -1})
	b.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(`{"par": 1}`)))
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct{ name, stream string }{{"buffered", "false"}, {"streamed", "true"}} {
		body := fmt.Sprintf(`{"session": %q, "query": "R = J", "stream": %s}`, info.ID, mode.stream)
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("query: %d %s", rec.Code, rec.Body)
				}
				b.SetBytes(int64(rec.Body.Len()))
			}
		})
	}
}

// BenchmarkSelectWarm is the operator under the benchmark's lookup workload:
// its two selection shapes — one parcel's owners in a t window (a string
// equality the value pass decides, then a window) and an x, y window on the
// parcels — on 5 × 5 parcels under one session-lifetime context, default
// sat-cache, one worker. Every survivor of the value pass is one box pair
// decided on the envelopes (TestWarmSelectAllocs pins the allocations).
func BenchmarkSelectWarm(b *testing.B) {
	land, owners, _ := datagen.HurricaneRelations(5)
	ge := func(v string, k int64) cqa.LinearAtom { return cqa.AttrCmpConst(v, cqa.OpGe, rational.FromInt(k)) }
	le := func(v string, k int64) cqa.LinearAtom { return cqa.AttrCmpConst(v, cqa.OpLe, rational.FromInt(k)) }
	ec := exec.New(1)
	ec.SatCache = constraint.NewSatCache(0)
	for _, shape := range []struct {
		name string
		r    *relation.Relation
		cond cqa.Condition
	}{
		{"owners", owners, cqa.Condition{cqa.StrEq("landId", "p2_3"), ge("t", 12), le("t", 22)}},
		{"land", land, cqa.Condition{ge("x", 5), le("x", 17), ge("y", 10), le("y", 22)}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := cqa.SelectCtx(ec, shape.r, shape.cond)
				if err != nil {
					b.Fatal(err)
				}
				if r.Len() == 0 {
					b.Fatal("empty result")
				}
				ec.Reset()
			}
		})
	}
}

// BenchmarkJoinPairLookup is the refine step of the hurricane joins at its
// three prices. hit-unsat and hit-sat are one remembered pair decision each
// (a parcel-ownership tuple against a track segment it misses, and one it
// meets): two fingerprints mixed, both inputs' atoms verified, no Merge, no
// Canon. miss is the whole R0 ⋈ Hurricane join through an empty 16-entry
// cache, a fresh one per iteration (built off the clock): every candidate
// pair merges, canonicalises and runs the eliminator — what the pair key
// costs where it cannot help. (The envelopes leave 28 candidates, so a
// cache kept across iterations would remember some of them.)
func BenchmarkJoinPairLookup(b *testing.B) {
	land, owners, track := datagen.HurricaneRelations(8)
	r0, err := cqa.Join(owners, land)
	if err != nil {
		b.Fatal(err)
	}
	cache := constraint.NewSatCache(0)
	var unsat, sat [2]constraint.Conjunction
	for _, t0 := range r0.Tuples() {
		for _, seg := range track.Tuples() {
			if _, ok, _ := cache.SatisfiablePair(t0.Constraint(), seg.Constraint()); ok {
				sat = [2]constraint.Conjunction{t0.Constraint(), seg.Constraint()}
			} else {
				unsat = [2]constraint.Conjunction{t0.Constraint(), seg.Constraint()}
			}
		}
	}
	for _, row := range []struct {
		name string
		pair [2]constraint.Conjunction
	}{{"hit-unsat", unsat}, {"hit-sat", sat}} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, hit := cache.SatisfiablePair(row.pair[0], row.pair[1]); !hit {
					b.Fatal("a remembered pair missed")
				}
			}
		})
	}
	b.Run("miss", func(b *testing.B) {
		ec := exec.New(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ec.SatCache = constraint.NewSatCache(16)
			b.StartTimer()
			if _, err := cqa.JoinCtx(ec, r0, track); err != nil {
				b.Fatal(err)
			}
			if s := ec.Stats()[0]; s.CacheHits != 0 {
				b.Fatalf("%d of %d pair decisions hit a 16-entry cache", s.CacheHits, s.SatChecks)
			}
			ec.Reset()
		}
	})
}

func churnStore(b *testing.B) *snapshot.Store {
	st, err := snapshot.Open(b.TempDir(), snapshot.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st
}

// BenchmarkSnapshotMaterialize: one fork-bound session open on the
// snapshot-churn database. shared: the committed database is in memory and
// carries its stored forms, so the pages are read and verified and nothing
// is decoded. decoded: the store was reopened and remembers nothing (the
// reopen is not timed), so the records are decoded too.
func BenchmarkSnapshotMaterialize(b *testing.B) {
	d := churnDB(b)
	for _, decoded := range []bool{false, true} {
		b.Run(map[bool]string{false: "shared", true: "decoded"}[decoded], func(b *testing.B) {
			dir := b.TempDir()
			st, err := snapshot.Open(dir, snapshot.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer func() { st.Close() }()
			snap, err := st.Commit(d, "", "bench")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if decoded {
					b.StopTimer()
					st.Close()
					if st, err = snapshot.Open(dir, snapshot.Options{}); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				got, err := st.Materialize(snap.ID)
				if err != nil || got.TupleCount() != d.TupleCount() {
					b.Fatalf("materialize: %d tuples, want %d (%v)", got.TupleCount(), d.TupleCount(), err)
				}
			}
			if stats := st.Stats(); (stats.RelationsDecoded > 0) != decoded || (stats.RelationsShared > 0) == decoded {
				b.Fatalf("decoded %d relations, shared %d", stats.RelationsDecoded, stats.RelationsShared)
			}
		})
	}
}

// BenchmarkSnapshotRecommit: one snapshot-churn operation on the store —
// commit the database into a store that holds no other snapshot, fork,
// materialise the fork, release both; every page is written, read back and
// freed again, fsyncs included. warm: the database has been committed
// before and carries its stored forms (a session's shared base): nothing is
// encoded, nothing decoded. cold: the same tuples under new relations (not
// timed), as a database nobody has committed: ordered, encoded, chunked and
// hashed first.
func BenchmarkSnapshotRecommit(b *testing.B) {
	d := churnDB(b)
	for _, cold := range []bool{true, false} {
		b.Run(map[bool]string{true: "cold", false: "warm"}[cold], func(b *testing.B) {
			st := churnStore(b)
			state := d
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					b.StopTimer()
					state = db.New()
					for _, name := range d.Names() {
						r, _ := d.Get(name)
						state.Put(name, datagen.Canonical(r))
					}
					b.StartTimer()
				}
				snap, err := st.Commit(state, "", "bench")
				if err != nil {
					b.Fatal(err)
				}
				fork, err := st.Fork(snap.ID)
				if err != nil {
					b.Fatal(err)
				}
				if got, err := st.Materialize(fork.ID); err != nil || got.TupleCount() != d.TupleCount() {
					b.Fatalf("materialize: %v", err)
				}
				for _, id := range []string{fork.ID, snap.ID} {
					if err := st.Release(id); err != nil {
						b.Fatal(err)
					}
				}
			}
			if stats := st.Stats(); cold && stats.RelationsReused != 0 || !cold && stats.RelationsEncoded > int64(len(d.Names())) {
				b.Fatalf("encoded %d relations, reused the forms of %d", stats.RelationsEncoded, stats.RelationsReused)
			}
		})
	}
}
