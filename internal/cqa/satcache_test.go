package cqa_test

import (
	"bytes"
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
			"select":     func(ec *exec.Context) (*relation.Relation, error) { return cqa.Select(ec, r1, cond) },
			"project":    func(ec *exec.Context) (*relation.Relation, error) { return cqa.Project(ec, r1, "id", "x") },
			"union":      func(ec *exec.Context) (*relation.Relation, error) { return cqa.Union(ec, r1, r2) },
			"difference": func(ec *exec.Context) (*relation.Relation, error) { return cqa.Difference(ec, r1, r2) },
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
	r0, err := cqa.Join(nil, owners, land)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := boxInputs(t, 1, 40, 36, 5)
	pairOps := map[string]relOp{
		"join boxes":      func(ec *exec.Context) (*relation.Relation, error) { return cqa.Join(ec, b1, b2) },
		"intersect boxes": func(ec *exec.Context) (*relation.Relation, error) { return cqa.Intersect(ec, b1, b2) },
		"join owners-land": func(ec *exec.Context) (*relation.Relation, error) {
			return cqa.Join(ec, owners, land)
		},
		"join r0-track":         func(ec *exec.Context) (*relation.Relation, error) { return cqa.Join(ec, r0, track) },
		"intersect r0-r0":       func(ec *exec.Context) (*relation.Relation, error) { return cqa.Intersect(ec, r0, r0) },
		"intersect track-track": func(ec *exec.Context) (*relation.Relation, error) { return cqa.Intersect(ec, track, track) },
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
				for _, mode := range []string{exec.PlanAuto, exec.PlanDense} {
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
	r2b, err := cqa.Rename(nil, r2, map[string]string{"id": "id2"})
	if err != nil {
		t.Fatal(err)
	}
	cache := constraint.NewSatCache(1 << 14)
	var want string
	for round := 0; round < 2; round++ {
		// Force the dense plan: this test exercises the sat cache, and
		// the vector fast path would decide these spatial pairs without
		// ever consulting the oracle.
		ec := &exec.Context{Parallelism: 4, SeqThreshold: 1, SatCache: cache, PlanMode: exec.PlanDense}
		out, err := cqa.Join(ec, r1, r2b)
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

// TestWarmJoinAllocs pins that a remembered pair allocates nothing: Query
// 3's two joins on a warm session cache, one worker, on 4 × 4 and on
// 10 × 10 parcels. A remembered pair shares the owner side's binding map
// and is appended by value; the rest is the filter stage, the fan-out's
// output and the output relation, once per operator. So five times the
// candidate pairs cost at most a few allocations more, where a Merge or a
// Canon per pair (some twenty allocations each) or a binding map per
// result costs hundreds. The level is the allocation ledger's (the root
// package's testdata/allocs.golden).
func TestWarmJoinAllocs(t *testing.T) {
	joins := func(grid int) (allocs float64, cands int64) {
		land, owners, track := datagen.HurricaneRelations(grid)
		ec := warmContext()
		run := func() {
			r0, err := cqa.Join(ec, owners, land)
			if err == nil {
				_, err = cqa.Join(ec, r0, track)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		run()
		for _, s := range ec.Stats() {
			cands += s.PairsTotal - s.PairsPruned
		}
		return warmAllocs(ec, run), cands
	}
	a4, c4 := joins(4)
	a10, c10 := joins(10)
	t.Logf("warm Query 3 joins: %.0f allocations over %d candidate pairs, %.0f over %d", a4, c4, a10, c10)
	if a10 > a4+8 {
		t.Errorf("warm Query 3 joins: %.0f allocations over %d candidate pairs, %.0f over %d: more than 8 apart, so a remembered pair allocates",
			a4, c4, a10, c10)
	}
}

// TestBoxJoinAllocs pins that a pair decided on its envelopes costs one
// allocation, its merged atoms and their memo boxes together: dense box
// joins (the benchmark's box-join shape: one tight cluster, every pair a
// candidate) under auto, one worker, the tuples canonical, of 20 boxes
// with 20 and with 40. The 400 more pairs may cost 400 allocations and a
// few for the filter stage and the output; a Merge + Canon per pair (seven
// more), a binding map per result, or atoms and memo boxes apart again
// cost hundreds more. The counters say that every candidate was decided
// on the envelopes.
func TestBoxJoinAllocs(t *testing.T) {
	join := func(n int) (allocs float64, cands int64) {
		p := datagen.Paper()
		p.SizeMin = 50
		r1 := datagen.Canonical(datagen.ClusteredBoxRelation(p, 20, 1, 10, 77))
		p.Seed += 500
		r2 := datagen.Canonical(datagen.ClusteredBoxRelation(p, n, 1, 10, 77))
		ec := warmContext()
		run := func() {
			if _, err := cqa.Join(ec, r1, r2); err != nil {
				t.Fatal(err)
			}
		}
		run()
		s := ec.Stats()[0]
		cands = s.PairsTotal - s.PairsPruned
		if cands < int64(15*n) || s.EnvHits != cands || s.VectorHits != 0 || s.SatChecks != 0 || s.FMDecisions != 0 {
			t.Fatalf("dense box join 20 x %d: env=%d vec=%d sat=%d fm=%d over %d candidate pairs of %d, want nearly all pairs candidates and every one decided on the envelopes",
				n, s.EnvHits, s.VectorHits, s.SatChecks, s.FMDecisions, cands, s.PairsTotal)
		}
		return warmAllocs(ec, run), cands
	}
	a20, c20 := join(20)
	a40, c40 := join(40)
	t.Logf("warm dense box join: %.0f allocations over %d candidate pairs, %.0f over %d", a20, c20, a40, c40)
	if a40-a20 > float64(c40-c20)+8 {
		t.Errorf("warm dense box join: %.0f allocations over %d candidate pairs, %.0f over %d: more than one allocation a pair",
			a20, c20, a40, c40)
	}
}

// TestWarmSelectAllocs pins that a tuple the value pass rejects costs
// nothing: the benchmark's owners lookup — one parcel's owners in a t window
// — on a warm session cache, one worker, over 5 × 5 parcels' owners, and
// over them and 189 owners of other parcels. Each of the three survivors is
// decided exactly once; a Merge + Canon + decision round per atom per tuple
// costs some sixty allocations a tuple.
func TestWarmSelectAllocs(t *testing.T) {
	_, owners, _ := datagen.HurricaneRelations(5)
	_, owners8, _ := datagen.HurricaneRelations(8)
	others := owners.Clone()
	for _, tu := range owners8.Tuples() {
		if v, _ := tu.RVal("landId"); v != relation.Str("p2_3") {
			others.MustAdd(tu)
		}
	}
	cond := cqa.Condition{cqa.StrEq("landId", "p2_3"),
		cqa.AttrCmpConst("t", cqa.OpGe, rational.FromInt(12)), cqa.AttrCmpConst("t", cqa.OpLe, rational.FromInt(22))}
	var allocs [2]float64
	for i, r := range []*relation.Relation{owners, others} {
		ec := warmContext()
		sel := func() {
			if _, err := cqa.Select(ec, r, cond); err != nil {
				t.Fatal(err)
			}
		}
		sel()
		if s := ec.Stats()[0]; s.TuplesOut == 0 || s.EnvHits+s.VectorHits+s.SatChecks != 3 {
			t.Errorf("%d owners: env=%d vec=%d sat=%d decisions for 3 value-pass survivors, want one each",
				r.Len(), s.EnvHits, s.VectorHits, s.SatChecks)
		}
		allocs[i] = warmAllocs(ec, sel)
	}
	t.Logf("owners select: %.0f allocations over %d tuples, %.0f over %d", allocs[0], owners.Len(), allocs[1], others.Len())
	if allocs[1] > allocs[0]+2 {
		t.Errorf("owners select: %.0f allocations over %d tuples, %.0f over %d: more than 2 apart, so a rejected tuple allocates",
			allocs[0], owners.Len(), allocs[1], others.Len())
	}
}

// warmContext is a session's context: one worker, a default sat-cache.
func warmContext() *exec.Context {
	ec := exec.New(1)
	ec.SatCache = constraint.NewSatCache(0)
	return ec
}

// warmAllocs is what a run of f allocates on ec, whose statistics are
// reset around each run.
func warmAllocs(ec *exec.Context, f func()) float64 {
	ec.Reset()
	return testing.AllocsPerRun(10, func() { f(); ec.Reset() })
}
