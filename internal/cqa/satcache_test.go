package cqa_test

import (
	"bytes"
	"runtime"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/datagen"
	"cdb/internal/db"
	"cdb/internal/exec"
	"cdb/internal/rational"
	"cdb/internal/relation"
)

// boxInputs are two workload-derived box relations sharing the relational
// attribute id (idMod distinct values; 0 = all NULL).
func boxInputs(t *testing.T, seed int64, n1, n2, idMod int) (*relation.Relation, *relation.Relation) {
	t.Helper()
	p := datagen.Scaled(10)
	p.Seed = seed
	r1 := datagen.BoxRelation(p, n1, idMod)
	p.Seed = seed + 1000
	r2 := datagen.BoxRelation(p, n2, idMod)
	if r1.Len() != n1 || r2.Len() != n2 {
		t.Fatalf("bad fixture sizes: %d, %d", r1.Len(), r2.Len())
	}
	return r1, r2
}

// saved is r as db.Save writes it: the bytes a user of the system sees.
func saved(t *testing.T, r *relation.Relation) string {
	t.Helper()
	d := db.New()
	if err := d.Put("R", r); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

type relOp func(*exec.Context) (*relation.Relation, error)

// TestSatCacheOutputIdentical asserts the determinism contract of the
// memoized engine: with the sat-cache on, every operator's output is
// byte-identical (db.Save bytes: tuples and order) to the cache-off run, at
// parallelism 1 and 4. Join and intersect, whose pair decisions are looked
// up under the two input fingerprints and whose remembered pairs reuse a
// stored merge, are additionally run with the cache off, at capacity 16
// (every entry evicted before its reuse) and at the default, at 1 and 4
// workers, in every plan mode, twice per context so the second run answers
// from what the first remembered — on boxes and on the hurricane-shaped
// three-variable tuples with equalities. Run under -race by
// scripts/check.sh, this also exercises the cache's concurrency story
// through the worker pool.
func TestSatCacheOutputIdentical(t *testing.T) {
	cond := cqa.Condition{
		cqa.AttrCmpConst("x", cqa.OpLe, rational.FromInt(1500)),
		cqa.AttrCmpConst("y", cqa.OpNe, rational.FromInt(700)),
		cqa.StrNe("id", "b3"),
	}
	for _, seed := range []int64{1, 42} {
		r1, r2 := boxInputs(t, seed, 40, 36, 5)
		ops := map[string]relOp{
			"select":     func(ec *exec.Context) (*relation.Relation, error) { return cqa.SelectCtx(ec, r1, cond) },
			"project":    func(ec *exec.Context) (*relation.Relation, error) { return cqa.ProjectCtx(ec, r1, "id", "x") },
			"union":      func(ec *exec.Context) (*relation.Relation, error) { return cqa.UnionCtx(ec, r1, r2) },
			"difference": func(ec *exec.Context) (*relation.Relation, error) { return cqa.DifferenceCtx(ec, r1, r2) },
		}
		for name, op := range ops {
			for _, par := range []int{1, 4} {
				off := &exec.Context{Parallelism: par, SeqThreshold: 1}
				want, err := op(off)
				if err != nil {
					t.Fatalf("seed %d %s par %d cache-off: %v", seed, name, par, err)
				}
				on := &exec.Context{Parallelism: par, SeqThreshold: 1,
					SatCache: constraint.NewSatCache(0)}
				got, err := op(on)
				if err != nil {
					t.Fatalf("seed %d %s par %d cache-on: %v", seed, name, par, err)
				}
				if saved(t, got) != saved(t, want) {
					t.Errorf("seed %d: %s at par %d diverges with the sat-cache on\noff:\n%s\non:\n%s",
						seed, name, par, saved(t, want), saved(t, got))
				}
			}
		}
	}

	land, owners, track := datagen.HurricaneRelations(3)
	r0, err := cqa.Join(owners, land)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := boxInputs(t, 1, 40, 36, 5)
	pairOps := map[string]relOp{
		"join boxes":      func(ec *exec.Context) (*relation.Relation, error) { return cqa.JoinCtx(ec, b1, b2) },
		"intersect boxes": func(ec *exec.Context) (*relation.Relation, error) { return cqa.IntersectCtx(ec, b1, b2) },
		"join owners-land": func(ec *exec.Context) (*relation.Relation, error) {
			return cqa.JoinCtx(ec, owners, land)
		},
		"join r0-track":         func(ec *exec.Context) (*relation.Relation, error) { return cqa.JoinCtx(ec, r0, track) },
		"intersect r0-r0":       func(ec *exec.Context) (*relation.Relation, error) { return cqa.IntersectCtx(ec, r0, r0) },
		"intersect track-track": func(ec *exec.Context) (*relation.Relation, error) { return cqa.IntersectCtx(ec, track, track) },
	}
	caches := map[string]func() *constraint.SatCache{
		"off":     func() *constraint.SatCache { return nil },
		"16":      func() *constraint.SatCache { return constraint.NewSatCache(16) },
		"default": func() *constraint.SatCache { return constraint.NewSatCache(0) },
	}
	for name, op := range pairOps {
		ref, err := op(&exec.Context{Parallelism: 1, NoPrune: true})
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		want := saved(t, ref)
		for size, newCache := range caches {
			for _, par := range []int{1, 4} {
				for _, mode := range []string{exec.PlanAuto, exec.PlanDense, exec.PlanSweep, exec.PlanVector} {
					ec := &exec.Context{Parallelism: par, SeqThreshold: 1, PlanMode: mode, SatCache: newCache()}
					for run := 0; run < 2; run++ {
						got, err := op(ec)
						if err != nil {
							t.Fatalf("%s cache %s par %d %s: %v", name, size, par, mode, err)
						}
						if saved(t, got) != want {
							t.Errorf("%s: cache %s, %d workers, plan %s, run %d diverges from the unfiltered cache-off run",
								name, size, par, mode, run)
						}
					}
				}
			}
		}
	}
}

// TestSatCacheWarmReuse checks that a cache shared across repeated operator
// runs actually hits — the warm-session scenario the benchmark's
// constraint.satcache_hit_share reports — and that the per-operator stats
// account for every decision as a hit or a miss.
func TestSatCacheWarmReuse(t *testing.T) {
	r1, r2 := boxInputs(t, 7, 30, 30, 0)
	r2b, err := cqa.Rename(r2, "id", "id2")
	if err != nil {
		t.Fatal(err)
	}
	cache := constraint.NewSatCache(1 << 14)
	var want string
	for round := 0; round < 2; round++ {
		// Force a non-vector plan: this test exercises the sat cache, and
		// the vector fast path would decide these spatial pairs without
		// ever consulting the oracle.
		ec := &exec.Context{Parallelism: 4, SeqThreshold: 1, SatCache: cache, PlanMode: exec.PlanSweep}
		out, err := cqa.JoinCtx(ec, r1, r2b)
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			want = saved(t, out)
		} else if saved(t, out) != want {
			t.Fatal("warm run output diverges from cold run")
		}
		s := ec.Stats()[0]
		if s.CacheHits+s.CacheMisses != s.SatChecks {
			t.Fatalf("round %d: hits %d + misses %d != sat-checks %d",
				round, s.CacheHits, s.CacheMisses, s.SatChecks)
		}
		if round == 1 && s.CacheHits != s.SatChecks {
			t.Errorf("warm round: %d of %d decisions missed a fully warmed cache",
				s.CacheMisses, s.SatChecks)
		}
	}
	if st := cache.Stats(); st.Hits == 0 || st.Collisions != 0 {
		t.Errorf("cache stats after warm reuse: %s", st)
	}
}

// TestWarmJoinAllocs puts a ceiling on what a remembered pair may cost: the
// paper's Query 3 joins (owners ⋈ parcels, then ⋈ the track) on a warm
// session cache, counted per candidate pair the filter stage hands to
// refine, in allocations and in bytes. A remembered pair allocates nothing —
// not even its result tuple, which shares the owner side's binding map and
// is appended by value; the rest is the filter stage, the fan-out's output
// and the output relation, once per operator. A Merge or a Canon on a
// remembered pair — some twenty allocations each — or a binding map per
// result cannot come back under the allocation ceiling, and a result or an
// error slot per candidate, or a candidate list grown by doubling, cannot
// come back under the byte ceiling. The two-worker leg runs the same joins
// on the pool (exec.New(2), default threshold: both joins have more
// candidates than it): the pool claims blocks of candidates and each worker
// appends into one slice for the whole fan-out, so its allocations stay at
// the one-worker leg's plus a few per operator; storage grown or allocated
// once per block cannot stay under its ceiling. The raw leg runs the same
// joins on the same relations built without their canonical forms, as a
// database filled by db.Put holds them: the filter canonicalises each input
// once per operator, so the bytes are the canonical leg's and a Canon of
// both sides on every pair lookup — two or more allocations a pair — breaks
// the ceiling.
func TestWarmJoinAllocs(t *testing.T) {
	land, owners, track := datagen.HurricaneRelations(8)
	for _, tc := range []struct {
		name    string
		workers int
		ceiling float64 // allocations per candidate pair
		bytes   float64 // heap bytes per candidate pair; 0 = not checked
	}{
		{"canonical", 1, 1.0, 200},    // 0.19 and 140 B when set
		{"two-workers", 2, 0.24, 200}, // 0.21 and 143 B when set; 0.24 and 279 B with a result and an error slot per candidate
		{"raw", 1, 2.0, 0},            // 1.16 when set
	} {
		in := [3]*relation.Relation{owners, land, track}
		if tc.name == "raw" {
			for i, r := range in {
				in[i] = nonCanonical(t, r)
			}
		}
		ec := exec.New(tc.workers)
		ec.SatCache = constraint.NewSatCache(0)
		var out *relation.Relation
		query3Joins := func() {
			r0, err := cqa.JoinCtx(ec, in[0], in[1])
			if err != nil {
				t.Fatal(err)
			}
			if out, err = cqa.JoinCtx(ec, r0, in[2]); err != nil {
				t.Fatal(err)
			}
		}
		query3Joins()
		var cands int64
		for _, s := range ec.Stats() {
			cands += s.PairsTotal - s.PairsPruned
			if s.Parallel != (tc.workers > 1) {
				t.Fatalf("%s: %s ran on the pool: %v", tc.name, s.Op, s.Parallel)
			}
		}
		ec.Reset()
		run := func() {
			query3Joins()
			ec.Reset()
		}
		allocs := testing.AllocsPerRun(10, run)
		bytes := bytesPerRun(10, run)
		if tc.name == "raw" {
			canon, err := cqa.JoinCtx(nil, owners, land)
			if err == nil {
				canon, err = cqa.JoinCtx(nil, canon, track)
			}
			if err != nil {
				t.Fatal(err)
			}
			if saved(t, out) != saved(t, canon) {
				t.Error("raw inputs: the joins print other bytes than on the canonical inputs")
			}
		}
		perPair, bytesPerPair := allocs/float64(cands), bytes/float64(cands)
		t.Logf("%s: %.0f allocations, %.0f B over %d candidate pairs = %.2f, %.0f B per pair",
			tc.name, allocs, bytes, cands, perPair, bytesPerPair)
		if perPair > tc.ceiling {
			t.Errorf("warm Query 3 joins, %s: %.0f allocations over %d candidate pairs = %.2f per pair, ceiling %v",
				tc.name, allocs, cands, perPair, tc.ceiling)
		}
		if tc.bytes > 0 && bytesPerPair > tc.bytes {
			t.Errorf("warm Query 3 joins, %s: %.0f B over %d candidate pairs = %.0f B per pair, ceiling %v B",
				tc.name, bytes, cands, bytesPerPair, tc.bytes)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates, averaged over runs calls after a warm-up call, at
// GOMAXPROCS 1 as AllocsPerRun measures.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// nonCanonical is r with every constraint part rebuilt from its atoms, so
// that none is flagged canonical or carries a memo: a relation as db.Put
// receives it from a program that builds tuples by hand.
func nonCanonical(t *testing.T, r *relation.Relation) *relation.Relation {
	t.Helper()
	out := relation.New(r.Schema())
	for _, tu := range r.Tuples() {
		nt := tu.WithConstraint(constraint.And(tu.Constraint().Constraints()...))
		if nt.Constraint().IsCanonical() {
			t.Fatal("And flagged its result canonical")
		}
		if err := out.Add(nt); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestBoxJoinAllocs puts a ceiling on a pair decided on its envelopes: a
// dense 20 x 20 box join (the benchmark's box-join shape: one tight cluster,
// nearly every pair a candidate) under auto, one worker, the tuples
// canonical and their envelopes already memoised. Such a pair costs one
// allocation, its merged atoms and their memo boxes together; the rest is
// the filter stage and the output relation, and the result tuple shares
// the (empty) binding map of a side. A Merge + Canon per pair — seven more
// allocations — a binding map per result, a clip, or atoms and memo boxes
// apart again cannot come back under this ceiling, and the counters say
// outright that neither of the first three ran.
func TestBoxJoinAllocs(t *testing.T) {
	p := datagen.Paper()
	p.SizeMin = 50
	r1 := datagen.Canonical(datagen.ClusteredBoxRelation(p, 20, 1, 10, 77))
	p.Seed += 500
	r2 := datagen.Canonical(datagen.ClusteredBoxRelation(p, 20, 1, 10, 77))
	ec := exec.New(1)
	ec.SatCache = constraint.NewSatCache(0)
	join := func() {
		if _, err := cqa.JoinCtx(ec, r1, r2); err != nil {
			t.Fatal(err)
		}
	}
	join()
	s := ec.Stats()[0]
	cands := s.PairsTotal - s.PairsPruned
	if cands < 300 || s.EnvHits != cands || s.VectorHits != 0 || s.SatChecks != 0 || s.FMDecisions != 0 {
		t.Fatalf("dense box join: env=%d vec=%d sat=%d fm=%d over %d candidate pairs of %d, want nearly all pairs candidates and every one decided on the envelopes",
			s.EnvHits, s.VectorHits, s.SatChecks, s.FMDecisions, cands, s.PairsTotal)
	}
	ec.Reset()
	allocs := testing.AllocsPerRun(10, func() {
		join()
		ec.Reset()
	})
	const ceiling = 1.5 // allocations per candidate pair; 1.11 when set
	perPair := allocs / float64(cands)
	t.Logf("%.0f allocations over %d candidate pairs = %.2f per pair", allocs, cands, perPair)
	if perPair > ceiling {
		t.Errorf("warm dense box join: %.0f allocations over %d candidate pairs = %.2f per pair, ceiling %v",
			allocs, cands, perPair, ceiling)
	}
}

// TestWarmSelectAllocs puts a ceiling on what a selection costs per input
// tuple: the benchmark's lookup shapes — one parcel's owners in a t window
// (a string equality and a window) and an x, y window on the parcels — on a
// warm session cache, one worker. A tuple the value pass rejects costs
// nothing, and a survivor is decided once against the window on the
// envelopes: its merged atoms, their memo boxes and the output tuple. One
// Merge + Canon + decision round per atom per tuple — some sixty
// allocations a tuple — cannot come back under this ceiling, and the
// counters say that every survivor was decided exactly once.
func TestWarmSelectAllocs(t *testing.T) {
	land, owners, _ := datagen.HurricaneRelations(5)
	ge := func(v string, k int64) cqa.LinearAtom { return cqa.AttrCmpConst(v, cqa.OpGe, rational.FromInt(k)) }
	le := func(v string, k int64) cqa.LinearAtom { return cqa.AttrCmpConst(v, cqa.OpLe, rational.FromInt(k)) }
	for _, tc := range []struct {
		name      string
		r         *relation.Relation
		cond      cqa.Condition
		survivors int64   // tuples the value pass keeps
		ceiling   float64 // allocations per input tuple
	}{
		// 0.36 when set
		{"owners", owners, cqa.Condition{cqa.StrEq("landId", "p2_3"), ge("t", 12), le("t", 22)}, 3, 0.6},
		// 2.20 when set
		{"land", land, cqa.Condition{ge("x", 5), le("x", 17), ge("y", 10), le("y", 22)}, int64(land.Len()), 3},
	} {
		ec := exec.New(1)
		ec.SatCache = constraint.NewSatCache(0)
		sel := func() {
			if _, err := cqa.SelectCtx(ec, tc.r, tc.cond); err != nil {
				t.Fatal(err)
			}
		}
		sel()
		s := ec.Stats()[0]
		if s.TuplesOut == 0 || s.EnvHits+s.VectorHits+s.SatChecks != tc.survivors {
			t.Errorf("%s: env=%d vec=%d sat=%d decisions for %d value-pass survivors, want one each",
				tc.name, s.EnvHits, s.VectorHits, s.SatChecks, tc.survivors)
		}
		ec.Reset()
		allocs := testing.AllocsPerRun(20, func() {
			sel()
			ec.Reset()
		})
		perTuple := allocs / float64(tc.r.Len())
		t.Logf("%s: %.0f allocations over %d input tuples = %.2f per tuple", tc.name, allocs, tc.r.Len(), perTuple)
		if perTuple > tc.ceiling {
			t.Errorf("%s: %.0f allocations over %d input tuples = %.2f per tuple, ceiling %v",
				tc.name, allocs, tc.r.Len(), perTuple, tc.ceiling)
		}
	}
}
