package cqa

import (
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/exec"
	"cdb/internal/rational"
	"cdb/internal/relation"
)

// TestSatCacheOutputIdentical asserts the determinism contract of the
// memoized engine: with the sat-cache on, every operator's output is
// byte-identical (tuples and order) to the cache-off run, at parallelism 1
// and 4. Run under -race by scripts/check.sh, this also exercises the
// cache's concurrency story through the worker pool.
func TestSatCacheOutputIdentical(t *testing.T) {
	cond := Condition{
		AttrCmpConst("x", OpLe, rational.FromInt(1500)),
		AttrCmpConst("y", OpNe, rational.FromInt(700)),
		StrNe("id", "b3"),
	}
	for _, seed := range []int64{1, 42} {
		r1, r2 := parInputs(t, seed, 40, 36, 5)
		ops := map[string]func(*exec.Context) (*relation.Relation, error){
			"select":     func(ec *exec.Context) (*relation.Relation, error) { return SelectCtx(ec, r1, cond) },
			"project":    func(ec *exec.Context) (*relation.Relation, error) { return ProjectCtx(ec, r1, "id", "x") },
			"join":       func(ec *exec.Context) (*relation.Relation, error) { return JoinCtx(ec, r1, r2) },
			"intersect":  func(ec *exec.Context) (*relation.Relation, error) { return IntersectCtx(ec, r1, r2) },
			"union":      func(ec *exec.Context) (*relation.Relation, error) { return UnionCtx(ec, r1, r2) },
			"difference": func(ec *exec.Context) (*relation.Relation, error) { return DifferenceCtx(ec, r1, r2) },
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
				if dump(got) != dump(want) {
					t.Errorf("seed %d: %s at par %d diverges with the sat-cache on\noff:\n%s\non:\n%s",
						seed, name, par, dump(want), dump(got))
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
	r1, r2 := parInputs(t, 7, 30, 30, 0)
	r2b, err := Rename(r2, "id", "id2")
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
		out, err := JoinCtx(ec, r1, r2b)
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			want = dump(out)
		} else if dump(out) != want {
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
