package oracle

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cdb/internal/constraint"
)

// TestDiffAgainstEngine is the core differential acceptance test: seeded
// random cases across all seven operators, engine vs oracle, at both a
// single worker and a small pool. Any failure prints the minimised
// counterexample and the seed that reproduces it.
func TestDiffAgainstEngine(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rep, err := Diff(Config{Cases: 210, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Points == 0 {
			t.Fatalf("workers=%d: no witness points compared", workers)
		}
		for _, f := range rep.Failures {
			t.Errorf("workers=%d seed=%d: %s", workers, rep.Seed, f.String())
		}
		if len(rep.Failures) > 3 {
			t.Fatalf("workers=%d: %d failures (showing first 3)", workers, len(rep.Failures))
		}
	}
}

// TestDiffReproducible pins that a run is a pure function of its seed.
func TestDiffReproducible(t *testing.T) {
	a, err := Diff(Config{Cases: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Diff(Config{Cases: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Points != b.Points || len(a.Failures) != len(b.Failures) {
		t.Fatalf("same seed, different runs: points %d vs %d, failures %d vs %d",
			a.Points, b.Points, len(a.Failures), len(b.Failures))
	}
}

// TestDiffSpatialVector drives the harness in spatial mode under auto:
// polygon-shaped inputs (convex, triangulated concave, and fallback
// strips), every decision the clipper can take going through exact polygon
// geometry. Agreement with the pointwise oracle here is the vector path's
// semantic acceptance test. The last row is the spatial smoke shape: 200
// cases on two workers.
func TestDiffSpatialVector(t *testing.T) {
	for _, c := range []Config{
		{Cases: 120, Seed: 3, Plan: "auto"},
		{Cases: 200, Seed: 5, Workers: 2, Plan: "auto"},
	} {
		c.Spatial = true
		name := fmt.Sprintf("plan=%s seed=%d workers=%d", c.Plan, c.Seed, c.Workers)
		rep, err := Diff(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Points == 0 {
			t.Fatalf("%s: no witness points compared", name)
		}
		for _, f := range rep.Failures {
			t.Errorf("%s: %s", name, f.String())
		}
		if len(rep.Failures) > 3 {
			t.Fatalf("%s: %d failures (showing first 3)", name, len(rep.Failures))
		}
	}
}

// TestDiffRules is the calculus front end's acceptance test: random safe
// rules (rule.go) through Rule.Translate and the algebra, against the
// pointwise rule specification, under every way the engine can pair and
// decide — auto and forced dense — each with and without a sat-cache, at
// one worker and at two. The witness sets are capped below the default: a
// rule's reference is a satisfiability decision per choice of tuples per
// point, and eight configurations run.
func TestDiffRules(t *testing.T) {
	for _, plan := range []string{"auto", "dense"} {
		for _, cache := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				rep, err := Diff(Config{Cases: 300, Seed: 11, Workers: workers, Plan: plan, SatCache: cache,
					Ops: []string{"rule"}, Witness: WitnessOptions{MaxPoints: 120}})
				if err != nil {
					t.Fatalf("plan=%s cache=%v workers=%d: %v", plan, cache, workers, err)
				}
				if rep.Points == 0 {
					t.Fatalf("plan=%s cache=%v workers=%d: no witness points compared", plan, cache, workers)
				}
				for i, f := range rep.Failures {
					if i == 3 {
						t.Fatalf("plan=%s cache=%v workers=%d: %d failures (showing first 3)", plan, cache, workers, len(rep.Failures))
					}
					t.Errorf("plan=%s cache=%v workers=%d seed=%d: %s", plan, cache, workers, rep.Seed, f.String())
				}
			}
		}
	}
}

// TestDiffIrrClear runs the harness with the planar rule's irredundant
// memo forced clear (constraint.ForceIrrClear), so that every
// simplification proves its conjunction again: the engine still agrees with
// the oracle, on random heterogeneous and on spatial cases, and every
// case's engine output, normalised, prints the bytes it prints with the
// memo kept.
func TestDiffIrrClear(t *testing.T) {
	defer constraint.ForceIrrClear(false)
	for _, cfg := range []Config{{Cases: 140, Seed: 1, Workers: 2}, {Cases: 120, Seed: 3, Spatial: true, Workers: 2}} {
		cfg = cfg.withDefaults()
		var outputs [2]string
		for i, clear := range []bool{false, true} {
			constraint.ForceIrrClear(clear)
			var b strings.Builder
			for c := 0; c < cfg.Cases; c++ {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*1_000_003))
				a, r1, r2, err := randomCase(rng, cfg.Ops[c%len(cfg.Ops)], cfg.MaxTuples, cfg.Spatial)
				if err != nil {
					t.Fatal(err)
				}
				out, err := RunEngine(cfg.engine(), a, r1, r2)
				if err != nil {
					t.Fatalf("case %d %s: %v", c, a, err)
				}
				fmt.Fprintf(&b, "%d %s\n%s\n", c, a, out.NormalizeWith(nil))
			}
			outputs[i] = b.String()
			rep, err := Diff(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rep.Failures {
				t.Errorf("spatial=%v irrClear=%v: %s", cfg.Spatial, clear, f.String())
			}
		}
		if outputs[0] != outputs[1] {
			t.Errorf("spatial=%v: normalised engine outputs differ with the memo forced clear", cfg.Spatial)
		}
		if !strings.Contains(outputs[0], "difference") {
			t.Fatalf("spatial=%v: no difference case drawn", cfg.Spatial)
		}
	}
}
