package cqa_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/datagen"
	"cdb/internal/db"
	"cdb/internal/exec"
	"cdb/internal/query"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
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

// TestWarmJoinAllocs puts a ceiling on what a remembered pair may cost: two
// joins on a warm session cache, counted per candidate pair the filter
// stage hands to refine, in allocations and in bytes. A remembered pair
// allocates nothing — not even its result tuple, which shares the owner
// side's binding map and is appended by value; the rest is the filter
// stage, the fan-out's output and the output relation, once per operator.
// A Merge or a Canon on a remembered pair — some twenty allocations each —
// or a binding map per result cannot come back under the allocation
// ceiling, and a result slot per candidate (64 B) cannot come back under
// the byte ceiling.
//
// The joins are the paper's Query 3's first (owners ⋈ parcels, 192
// candidates on 8 × 8 parcels) and its result ⋈ a storm corridor: in each
// of the track's eight time slices, the diagonal band |x − y| ≤ 1/2 across
// the whole field, which no envelope narrows below the field — 640
// candidates, 80 of them satisfiable, decided on the pair lookup as Query
// 3's track join decided its 640 before the track's envelopes bounded x and
// y (that join keeps 28 now, too few to spread the once-per-operator cost
// over). The two-worker leg runs the same joins on the pool (exec.New(2),
// default threshold: both joins have more candidates than it): the pool
// allocates one buffer of one result per candidate for the whole fan-out,
// each claimed block appends into its own region of it, and the blocks are
// moved together in place (the second join keeps 80 of 640, so its result
// is copied out at its size), so its allocations stay at the one-worker
// leg's plus a few per operator; storage grown or allocated per block or
// per worker cannot stay under its ceiling. The raw leg runs the same joins on the same relations
// built without their canonical forms, as a database filled by db.Put holds
// them: the filter canonicalises each input once and remembers it with the
// relation's working set, so the bytes are the canonical leg's and a Canon
// of both sides on every pair lookup — two or more allocations a pair —
// breaks the ceiling.
//
// Query 3's own two joins, one worker, canonical, have an absolute ceiling
// in bytes per run, 76 000 B: what they allocate with the working sets
// remembered and the candidate list copied out once (66 500 B) plus about
// 15 %, so a filter that keeps fewer candidates cannot pay for them with a
// costlier frame or a dearer candidate. (It was 116 368 B, what they
// allocated before the track's envelopes bounded x and y.)
func TestWarmJoinAllocs(t *testing.T) {
	land, owners, track := datagen.HurricaneRelations(8)
	corridor := stormCorridor(8*6, 40, 8)
	for _, tc := range []struct {
		name    string
		workers int
		ceiling float64 // allocations per candidate pair
		bytes   float64 // heap bytes per candidate pair; 0 = not checked
	}{
		{"canonical", 1, 1.0, 125},    // 0.19 and 157 B when set; 0.09 and 115 B with working sets remembered; 0.07 and 104 B
		{"two-workers", 2, 0.24, 130}, // 0.21 and 160 B when set; 0.11 and 118 B; 0.08 and 108 B (115 B under -race)
		{"raw", 1, 2.0, 0},            // 1.16 when set; 0.09; 0.07
	} {
		in := [3]*relation.Relation{owners, land, corridor}
		if tc.name == "raw" {
			for i, r := range in {
				in[i] = nonCanonical(t, r)
			}
		}
		ec := exec.New(tc.workers)
		ec.SatCache = constraint.NewSatCache(0)
		var out *relation.Relation
		joins := warmJoins(t, ec, in, &out)
		var cands int64
		for _, s := range ec.Stats() {
			cands += s.PairsTotal - s.PairsPruned
			if s.Parallel != (tc.workers > 1) {
				t.Fatalf("%s: %s ran on the pool: %v", tc.name, s.Op, s.Parallel)
			}
		}
		ec.Reset()
		allocs := testing.AllocsPerRun(10, joins)
		bytes := bytesPerRun(10, joins)
		if tc.name == "raw" {
			canon, err := cqa.Join(nil, owners, land)
			if err == nil {
				canon, err = cqa.Join(nil, canon, corridor)
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
			t.Errorf("warm joins, %s: %.0f allocations over %d candidate pairs = %.2f per pair, ceiling %v",
				tc.name, allocs, cands, perPair, tc.ceiling)
		}
		if tc.bytes > 0 && bytesPerPair > tc.bytes {
			t.Errorf("warm joins, %s: %.0f B over %d candidate pairs = %.0f B per pair, ceiling %v B",
				tc.name, bytes, cands, bytesPerPair, tc.bytes)
		}
	}

	ec := exec.New(1)
	ec.SatCache = constraint.NewSatCache(0)
	var out *relation.Relation
	bytes := bytesPerRun(10, warmJoins(t, ec, [3]*relation.Relation{owners, land, track}, &out))
	t.Logf("Query 3: %.0f B per run", bytes) // 66 500 (66 744 before the candidate list was copied out once, 84 080 before the working sets were remembered, 103 344 before the frame held float keys)
	const ceiling = 76000
	if bytes > ceiling {
		t.Errorf("warm Query 3 joins: %.0f B per run, ceiling %d B", bytes, ceiling)
	}

	// The whole of warm Query 3 as a session runs it, in allocations: its
	// stored relations keep their filter-stage working sets, so neither join
	// partitions or projects a loaded relation again (253 allocations a
	// query when every join built both sides' working sets afresh), and each
	// join's candidate list is collected in a pooled scratch list and copied
	// out once, and the request reads its environment through layers (138
	// allocations; 153 while every statement ran as a program of its own
	// over a copy of the environment, 160 while the candidate list grew by
	// append, 140 under -race, where a sync.Pool drops some of what it is
	// handed).
	const queryCeiling = 141 + raceAllocs
	if n := warmQuery3Allocs(t); n > queryCeiling {
		t.Errorf("warm Query 3: %.0f allocations per query, ceiling %d", n, queryCeiling)
	}
}

// warmQuery3Allocs is the allocations of one request of the benchmark's
// hurricane workload without the server (BenchmarkHurricaneQuery3Warm,
// one worker): Query 3 on 8 × 8 parcels loaded from text, run by
// query.Program.Exec on a session's environment and context (the last
// result normalised), the windows rotating over the workload's 31 starts, every one
// seen before.
func warmQuery3Allocs(t *testing.T) float64 {
	land, owners, track := datagen.HurricaneRelations(8)
	raw := db.New()
	for _, r := range []struct {
		name string
		rel  *relation.Relation
	}{{"Hurricane", track}, {"Land", land}, {"Landownership", owners}} {
		if err := raw.Put(r.name, r.rel); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := raw.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := db.Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	var progs [31]*query.Program
	for a := range progs {
		prog, err := query.Parse(fmt.Sprintf("R0 = join Landownership and Land\nR1 = join R0 and Hurricane\n"+
			"R2 = select t >= %d, t <= %d from R1\nR3 = project R2 on name", a, a+10))
		if err != nil {
			t.Fatal(err)
		}
		progs[a] = prog
	}
	ec := exec.New(1)
	ec.SatCache = constraint.NewSatCache(0)
	run := func(a int) {
		_, out, err := progs[a].Exec(d.Env(), ec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() == 0 {
			t.Fatalf("window %d: empty result", a)
		}
		ec.Reset()
	}
	for a := range progs {
		run(a)
	}
	next := 0
	n := testing.AllocsPerRun(2*len(progs), func() {
		run(next % len(progs))
		next++
	})
	t.Logf("warm Query 3: %.0f allocations per query", n)
	return n
}

// warmJoins runs in[0] ⋈ in[1] ⋈ in[2] once on ec, leaving the result in
// *out, and returns a run that repeats the two joins and resets ec's
// statistics: after the first call every pair is a remembered one.
func warmJoins(t *testing.T, ec *exec.Context, in [3]*relation.Relation, out **relation.Relation) func() {
	t.Helper()
	joins := func() {
		r0, err := cqa.Join(ec, in[0], in[1])
		if err != nil {
			t.Fatal(err)
		}
		if *out, err = cqa.Join(ec, r0, in[2]); err != nil {
			t.Fatal(err)
		}
	}
	joins()
	return func() {
		joins()
		ec.Reset()
	}
}

// stormCorridor is a track relation over (t, x, y) whose envelopes bound t
// only to a slice and x to the field: in each of slices time slices of a
// horizon, the band |x − y| ≤ 1/2 with 0 ≤ x ≤ field.
func stormCorridor(field, horizon, slices int) *relation.Relation {
	r := relation.New(schema.MustNew(schema.Con("t"), schema.Con("x"), schema.Con("y")))
	ri := func(n int) rational.Rat { return rational.FromInt(int64(n)) }
	xy, half := constraint.Var("x").Sub(constraint.Var("y")), rational.New(1, 2)
	dt := horizon / slices
	for k := 0; k < slices; k++ {
		r.MustAdd(relation.ConstraintTuple(constraint.And(
			constraint.MustNew(xy, "<=", constraint.Const(half)), constraint.MustNew(xy, ">=", constraint.Const(half.Neg())),
			constraint.GeConst("x", ri(0)), constraint.LeConst("x", ri(field)),
			constraint.GeConst("t", ri(k*dt)), constraint.LeConst("t", ri(k*dt+dt))).Canon()))
	}
	return r
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
		if _, err := cqa.Join(ec, r1, r2); err != nil {
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
			if _, err := cqa.Select(ec, tc.r, tc.cond); err != nil {
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
