package constraint

import (
	"math/rand"
	"sync"
	"testing"

	"cdb/internal/rational"
)

// TestSatCacheAgreesWithRawDecisions checks the only property that matters:
// the memoized answer is always the raw Fourier-Motzkin answer, queried in
// any order, hot or cold.
func TestSatCacheAgreesWithRawDecisions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cache := NewSatCache(0)
	var conjs []Conjunction
	for i := 0; i < 100; i++ {
		conjs = append(conjs, randConj(rng))
	}
	for round := 0; round < 3; round++ {
		for i, j := range conjs {
			got, _ := cache.Satisfiable(j)
			if want := j.IsSatisfiable(); got != want {
				t.Fatalf("round %d case %d: cache says %v, raw says %v: %s", round, i, got, want, j)
			}
		}
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Error("three rounds over the same questions produced no hits")
	}
	if st.Hits+st.Misses != int64(3*len(conjs)) {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, 3*len(conjs))
	}
}

// TestNilSatCacheIsRaw: the nil cache is the no-cache path — every answer is
// the raw eliminator's, a pair comes back merged and canonical, and nothing
// is ever a hit.
func TestNilSatCacheIsRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var cache *SatCache
	for i := 0; i < 60; i++ {
		a, b := randConj(rng), randConj(rng)
		if sat, hit := cache.Satisfiable(a); sat != a.IsSatisfiable() || hit {
			t.Fatalf("case %d: nil cache says (%v, hit %v) on %s", i, sat, hit, a)
		}
		want := a.Merge(b).Canon()
		merged, sat, hit := cache.SatisfiablePair(a, b)
		if sat != want.IsSatisfiable() || hit || !merged.EqualCanonical(want) {
			t.Fatalf("case %d: nil cache pair (%s, %v, hit %v), want (%s, %v)", i, merged, sat, hit, want, want.IsSatisfiable())
		}
	}
}

// TestSatCacheHitsOnEquivalentForms checks that memoization happens at the
// canonical-form level: rescaled and reordered variants of the same
// conjunction share one entry.
func TestSatCacheHitsOnEquivalentForms(t *testing.T) {
	cache := NewSatCache(64)
	x, y := Var("x"), Var("y")
	a := And(
		Constraint{Expr: x.Add(y).Sub(ConstInt(2)), Op: Le},
		Constraint{Expr: x.Neg(), Op: Le},
	)
	b := And( // same atoms, reordered and rescaled
		Constraint{Expr: x.Neg().Scale(rational.FromInt(2)), Op: Le},
		Constraint{Expr: x.Add(y).Sub(ConstInt(2)).Scale(rational.FromInt(3)), Op: Le},
	)
	if _, hit := cache.Satisfiable(a); hit {
		t.Fatal("first lookup hit")
	}
	if _, hit := cache.Satisfiable(b); !hit {
		t.Fatal("equivalent canonical form missed the cache")
	}
	if st := cache.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// TestSatCacheEviction checks the LRU bound: a capacity-16 cache (one entry
// per shard) holds at most 16 entries and reports evictions.
func TestSatCacheEviction(t *testing.T) {
	cache := NewSatCache(16)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		cache.Satisfiable(randConj(rng))
	}
	st := cache.Stats()
	if st.Entries > 16 {
		t.Errorf("entries = %d, want <= 16", st.Entries)
	}
	if st.Evictions == 0 {
		t.Error("200 distinct questions through 16 entries produced no evictions")
	}
}

// TestSatCacheConcurrent hammers one cache from many goroutines (run under
// -race by scripts/check.sh) with single and pair questions mixed, and
// re-verifies every answer against the raw decision procedure.
func TestSatCacheConcurrent(t *testing.T) {
	cache := NewSatCache(128)
	seed := rand.New(rand.NewSource(9))
	var conjs []Conjunction
	var want []bool
	for i := 0; i < 60; i++ {
		j := randConj(seed)
		conjs = append(conjs, j)
		want = append(want, j.IsSatisfiable())
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	fail := func(s string) {
		select {
		case errs <- s:
		default:
		}
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 500; i++ {
				k := rng.Intn(len(conjs))
				if got, _ := cache.Satisfiable(conjs[k]); got != want[k] {
					fail(conjs[k].String())
					return
				}
				// A small pair space, so the workers race on the same entries.
				a, b := conjs[k%12], conjs[rng.Intn(12)]
				ref := a.Merge(b).Canon()
				merged, sat, _ := cache.SatisfiablePair(a, b)
				if sat != ref.IsSatisfiable() || (sat && !merged.EqualCanonical(ref)) {
					fail(a.String() + " AND " + b.String())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if s, bad := <-errs; bad {
		t.Fatalf("concurrent cache answer diverged from raw decision on %s", s)
	}
}

// pairPool is the set of shapes the pair lookup is checked on: boxes,
// polygons, hurricane-shaped three-variable tuples with equalities, the two
// sentinels, and random conjunctions, canonical and not.
func pairPool() []Conjunction {
	q := rational.FromInt
	rng := rand.New(rand.NewSource(17))
	le := func(e Expr, k int64) Constraint { return Constraint{Expr: e.Sub(ConstInt(k)), Op: Le} }
	x, y, tv := Var("x"), Var("y"), Var("t")
	segment := func(t0, x0, y0 int64) Conjunction { // a track segment: x, y linear in t
		return And(
			MustNew(x, "=", tv.Scale(rational.New(7, 5)).Add(ConstInt(x0))),
			MustNew(y, "=", tv.Scale(rational.New(6, 5)).Add(ConstInt(y0))),
			GeConst("t", q(t0)), LeConst("t", q(t0+5)))
	}
	owned := func(b Conjunction, t0, t1 int64) Conjunction { // a parcel during an ownership
		return b.With(GeConst("t", q(t0)), LeConst("t", q(t1))).Canon()
	}
	pool := []Conjunction{
		And(), True(), False(),
		intBox(0, 10, 0, 10), intBox(5, 15, 5, 15), intBox(11, 12, 0, 3), intBox(10, 20, 10, 20),
		And(le(x.Add(y), 10), le(x.Neg(), 0), le(y.Neg(), 0)),                                           // triangle
		And(le(x.Add(y), 30), le(x.Neg().Sub(y), -21), le(x.Sub(y), 3), le(y.Sub(x), 3)).Canon(),        // diamond
		And(Constraint{Expr: x.Sub(ConstInt(5)), Op: Lt}, Constraint{Expr: ConstInt(5).Sub(x), Op: Le}), // unsat alone
		owned(intBox(0, 5, 0, 5), 0, 12), owned(intBox(6, 11, 6, 11), 13, 30), owned(intBox(0, 5, 6, 11), 31, 40),
		segment(0, 0, 0).Canon(), segment(5, 7, 6).Canon(), segment(10, 14, 12),
	}
	for i := 0; i < 16; i++ {
		pool = append(pool, randConj(rng))
	}
	for i := 0; i < 4; i++ {
		atoms := noisyAtoms(rng, i%2 == 0)
		pool = append(pool, And(atoms[:min(len(atoms), 5)]...))
	}
	return pool
}

// TestPairLookupAgreesWithMergeCanon checks the pair lookup against what it
// replaces — a.Merge(b).Canon() and a decision on it — on the miss, on the
// hit, for (a, b) and (b, a) as separate questions, through evictions at
// capacity 16, and with every key forced onto one value so that every pair
// question and every single-conjunction question collides with the others:
// collisions are counted and never answer.
func TestPairLookupAgreesWithMergeCanon(t *testing.T) {
	pool := pairPool()
	type ref struct {
		merged Conjunction
		sat    bool
	}
	want := make([][]ref, len(pool))
	for i, a := range pool {
		want[i] = make([]ref, len(pool))
		for k, b := range pool {
			want[i][k] = ref{merged: a.Merge(b).Canon(), sat: a.Merge(b).IsSatisfiable()}
		}
	}
	check := func(t *testing.T, what string, i, k int, merged Conjunction, sat bool) {
		t.Helper()
		w := want[i][k]
		if sat != w.sat {
			t.Fatalf("%s (%d, %d): verdict %v, raw decision %v: %s AND %s", what, i, k, sat, w.sat, pool[i], pool[k])
		}
		if !sat {
			return
		}
		if !merged.canon || !merged.EqualCanonical(w.merged) || merged.Fingerprint() != w.merged.Fingerprint() {
			t.Fatalf("%s (%d, %d): merge %s, want %s", what, i, k, merged, w.merged)
		}
	}
	pairs := int64(len(pool) * len(pool))

	t.Run("default", func(t *testing.T) {
		cache := NewSatCache(0)
		first := make([]int, len(pool)) // the first index holding the same canonical form
		for i := range pool {
			for first[i] = 0; !pool[first[i]].EqualCanonical(pool[i]); first[i]++ {
			}
		}
		asked := map[[2]int]bool{}
		for round := 0; round < 3; round++ {
			for i, a := range pool {
				for k, b := range pool {
					merged, sat, hit := cache.SatisfiablePair(a, b)
					check(t, "default", i, k, merged, sat)
					// The pool repeats a few canonical forms (And() and
					// True(), the empty random draws): a question is new
					// once per pair of forms, not per pair of indexes.
					forms := [2]int{first[i], first[k]}
					if wantHit := asked[forms]; hit != wantHit {
						t.Fatalf("round %d (%d, %d): hit = %v, want %v", round, i, k, hit, wantHit)
					}
					asked[forms] = true
				}
			}
		}
		st := cache.Stats()
		if st.Hits+st.Misses != 3*pairs || st.Collisions != 0 || st.Evictions != 0 {
			t.Errorf("three rounds over %d pairs: %s", pairs, st)
		}
	})

	t.Run("order", func(t *testing.T) {
		cache := NewSatCache(0)
		a, b := pool[3], pool[4]
		cache.SatisfiablePair(a, b)
		if _, _, hit := cache.SatisfiablePair(b, a); hit {
			t.Fatal("(b, a) was answered by (a, b)'s entry")
		}
		for _, p := range [][2]Conjunction{{a, b}, {b, a}} {
			if _, _, hit := cache.SatisfiablePair(p[0], p[1]); !hit {
				t.Fatal("a remembered pair missed")
			}
		}
		// The same two forms rebuilt from scratch: other arrays, equal atoms.
		a2, b2 := And(a.Constraints()...), And(b.Constraints()...)
		if merged, sat, hit := cache.SatisfiablePair(a2, b2); !hit || !sat || !merged.EqualCanonical(a.Merge(b)) {
			t.Fatalf("rebuilt inputs: hit %v, sat %v, merge %s", hit, sat, merged)
		}
		if st := cache.Stats(); st.Entries != 2 {
			t.Fatalf("entries = %d, want 2", st.Entries)
		}
	})

	t.Run("capacity-16", func(t *testing.T) {
		cache := NewSatCache(16)
		for round := 0; round < 2; round++ {
			for i, a := range pool {
				for k, b := range pool {
					merged, sat, _ := cache.SatisfiablePair(a, b)
					check(t, "capacity 16", i, k, merged, sat)
					// The same pair again at once: a hit, and the same answer.
					merged, sat, hit := cache.SatisfiablePair(a, b)
					check(t, "capacity 16, asked again", i, k, merged, sat)
					if !hit {
						t.Fatalf("(%d, %d): the entry just stored was not found", i, k)
					}
				}
			}
		}
		st := cache.Stats()
		if st.Entries > 16 || st.Evictions == 0 {
			t.Errorf("%d pairs through 16 entries: %s", pairs, st)
		}
		if st.Hits+st.Misses != 4*pairs {
			t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, 4*pairs)
		}
	})

	t.Run("collide", func(t *testing.T) {
		cache := NewSatCache(0)
		cache.rekey = func(uint64) uint64 { return 7 }
		for i, a := range pool {
			for k, b := range pool {
				merged, sat, _ := cache.SatisfiablePair(a, b)
				check(t, "collide", i, k, merged, sat)
				// A single-conjunction question lands on the pair's key,
				// then the pair is asked again over the single entry.
				if got, _ := cache.Satisfiable(b); got != b.IsSatisfiable() {
					t.Fatalf("single entry %d answered %v under a pair's key", k, got)
				}
				merged, sat, hit := cache.SatisfiablePair(a, b)
				check(t, "collide, over a single entry", i, k, merged, sat)
				if hit {
					t.Fatalf("(%d, %d): a pair question hit a single-conjunction entry", i, k)
				}
				if got, hit := cache.Satisfiable(a.Merge(b)); got != want[i][k].sat || hit {
					t.Fatalf("(%d, %d): single question answered %v (hit %v) over a pair entry", i, k, got, hit)
				}
			}
		}
		st := cache.Stats()
		if st.Entries != 1 || st.Collisions == 0 || st.Hits+st.Misses != 4*pairs {
			t.Errorf("every key forced onto one: %s", st)
		}
	})
}

// TestSatFuncThreading checks the decision plumbing end to end: a counting
// SatFunc must see every decision that Simplify makes and every step of a
// staircase that asks it, and the results must match the raw path exactly.
func TestSatFuncThreading(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cache := NewSatCache(0)
	calls := 0
	counting := func(j Conjunction) bool {
		calls++
		sat, _ := cache.Satisfiable(j)
		return sat
	}
	for i := 0; i < 40; i++ {
		j, k := randConj(rng), randConj(rng)
		plain := SubtractAll(j, []Conjunction{k})
		cached := disjuncts(SubtractAllScoped(j, []Conjunction{k}, struct{}{},
			AtomStep(func(_ struct{}, prefix *Chain, atom Constraint) (struct{}, bool) {
				return struct{}{}, counting(prefix.Con().With(atom))
			})))
		if len(plain) != len(cached) {
			t.Fatalf("case %d: a staircase through the cache disagrees: %d vs %d disjuncts", i, len(plain), len(cached))
		}
		for d := range plain {
			if !plain[d].Equivalent(cached[d]) {
				t.Fatalf("case %d disjunct %d: %s vs %s", i, d, plain[d], cached[d])
			}
		}
		if !j.Simplify().Equivalent(j.SimplifyWith(counting)) {
			t.Fatalf("case %d: SimplifyWith disagrees", i)
		}
	}
	if calls == 0 {
		t.Fatal("SatFunc was never consulted")
	}
}
