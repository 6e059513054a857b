package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	daemonOnce sync.Once
	daemonBin  string
	daemonErr  error
)

// testDaemon builds cmd/cqacdbd once per test binary, outside the
// repository.
func testDaemon(t *testing.T) string {
	t.Helper()
	daemonOnce.Do(func() {
		dir, err := os.MkdirTemp("", "cqacdbd-bench-test")
		if err != nil {
			daemonErr = err
			return
		}
		daemonBin, _, daemonErr = buildDaemon(context.Background(), dir)
	})
	if daemonErr != nil {
		t.Fatal(daemonErr)
	}
	return daemonBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if daemonBin != "" {
		os.RemoveAll(filepath.Dir(daemonBin))
	}
	os.Exit(code)
}

// smokeConfig is a run small enough for tier-1: an 8-entry pool, one
// client, a 300 ms window.
func smokeConfig(t *testing.T, w workload, seed int64) runConfig {
	dir := t.TempDir()
	return runConfig{
		w: w, seed: seed, pool: 8, tracePool: 2, setups: 1,
		warmup: 50 * time.Millisecond, window: 300 * time.Millisecond,
		untraced: true, traced: true,
		daemonBin: testDaemon(t),
		scratch:   filepath.Join(dir, "run"), outDir: filepath.Join(dir, "out"),
		speed: newSpeedometer(),
	}
}

// tracedOnly is the in-process half of a run alone: generate, then the
// traced pass. Its counts depend on nothing but the seed.
func tracedOnly(t *testing.T, w workload, seed int64) map[string]float64 {
	t.Helper()
	cfg := smokeConfig(t, w, seed)
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	_, loaded, pool, _, err := generate(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := &result{workload: w.name, metrics: map[string]float64{}}
	if err := tracedPass(&cfg, loaded, pool, res); err != nil {
		t.Fatal(err)
	}
	if !res.ok() {
		t.Fatalf("traced pass: %d of %d failed: %v", res.failed, res.attempted, res.firstErr)
	}
	return res.metrics
}

// deterministic are the counts that must repeat exactly for one seed.
var deterministic = []string{
	"cqa.pairs_per_query", "constraint.sat_checks_per_query",
	"vector.hits_per_query", "snapshot.pages_written_per_commit",
	"cqa.tuples_out_per_query", // the one that moves on box-join, where every pair is a vector-decided candidate
}

func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t, w, 1)
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.ok() {
				t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.firstErr)
			}

			// Every metric of the catalogue is printed exactly once, finite,
			// with its unit.
			var buf bytes.Buffer
			if err := printResult(&buf, res, traceBoth); err != nil {
				t.Fatal(err)
			}
			seen := map[string]int{}
			for _, line := range strings.Split(buf.String(), "\n") {
				f := strings.Fields(line)
				if len(f) == 4 && f[0] == w.name {
					seen[f[1]+" "+f[3]]++
				}
			}
			for _, m := range reported(traceBoth) {
				if seen[m.name+" "+m.unit] != 1 {
					t.Errorf("metric %s [%s] printed %d times", m.name, m.unit, seen[m.name+" "+m.unit])
				}
			}
			if len(seen) != len(endToEnd)+len(perLayer) {
				t.Errorf("printed %d metrics, catalogue has %d", len(seen), len(endToEnd)+len(perLayer))
			}

			// The contract line carries exactly one mode's metrics.
			for trace, want := range map[int][]metric{traceOff: endToEnd, traceOn: perLayer} {
				buf.Reset()
				if err := printContractLine(&buf, res, trace); err != nil {
					t.Fatal(err)
				}
				var line struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
					t.Fatal(err)
				}
				if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(want) {
					t.Errorf("trace %d: unexpected contract line %s", trace, buf.String())
				}
				for _, m := range want {
					got, ok := line.Metrics[m.name]
					if !ok || got.Value == nil || got.Unit != m.unit || math.IsNaN(*got.Value) {
						t.Errorf("trace %d: metric %s missing or malformed", trace, m.name)
					}
				}
			}
			for _, m := range endToEnd {
				if res.metrics[m.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, res.metrics[m.name])
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("span file: %v", err)
			}

			// The counts repeat for the same seed and move with another.
			again, other := tracedOnly(t, w, 1), tracedOnly(t, w, 2)
			differs := false
			for _, name := range deterministic {
				if res.metrics[name] != again[name] {
					t.Errorf("%s: %v then %v for the same seed", name, res.metrics[name], again[name])
				}
				differs = differs || res.metrics[name] != other[name]
			}
			if !differs {
				t.Errorf("seeds 1 and 2 agree on every deterministic count: %v", deterministic)
			}
		})
	}
}

// TestContractFile checks that BENCHMARK.json is what the catalogue and
// the workload table generate: the names in the file and in the code are
// the same set.
func TestContractFile(t *testing.T) {
	want, err := contractJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: go run ./benchmark -contract > BENCHMARK.json")
	}
	names := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if names[m.name] {
			t.Errorf("metric %s is in the catalogue twice", m.name)
		}
		names[m.name] = true
	}
}

// TestWrongDigestFails flips one expected digest: the run must count
// failed operations, report itself incorrect, and exit non-zero.
func TestWrongDigestFails(t *testing.T) {
	w, _ := workloadByName("lookup")
	cfg := smokeConfig(t, w, 1)
	cfg.traced = false
	cfg.tamper = func(pool []request) { pool[3].want = "0" + pool[3].want[1:] + "x" }
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ok() || res.failed == 0 || res.failed >= res.attempted {
		t.Fatalf("failed=%d attempted=%d, want some but not all operations failed", res.failed, res.attempted)
	}
	if exitCode(!res.ok()) == 0 {
		t.Error("exit code 0 for a run with failed operations")
	}
	var buf bytes.Buffer
	if err := printContractLine(&buf, res, traceOff); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"correct":false`) {
		t.Errorf("contract line does not report the failure: %s", buf.String())
	}
}

// TestQuartiles pins the spread statistic to the one the driver uses:
// Python's statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20}, 10, 20},
	} {
		if q1, q3 := quartiles(c.vs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestSlowdown checks the speedometer's arithmetic on a made-up timeline:
// the mean of the units within reach over the nominal duration, widened to
// the nearest units when too few are in reach, with a frozen unit capped
// at twice the median.
func TestSlowdown(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	sp := newSpeedometer()
	for i, ms := range []float64{3, 3, 6, 6, 6, 6, 300, 6} {
		sp.start = append(sp.start, at(100*i))
		sp.ms = append(sp.ms, ms)
		sp.cpuMS = append(sp.cpuMS, ms/2)
	}
	for _, c := range []struct {
		a, b int
		want float64
	}{
		{0, 100, (3 + 3 + 6 + 6) / 4.0 / calNominalMS},            // units at 0..300 are within 250 ms
		{300, 400, (3 + 6 + 6 + 6 + 6 + 12) / 6.0 / calNominalMS}, // units at 100..600: 3 6 6 6 6 and the frozen one, capped at 12
		{-5000, -4000, (3 + 3 + 6 + 6) / 4.0 / calNominalMS},      // none in reach: the nearest four
		{700, 700, (6 + 6 + 12 + 6) / 4.0 / calNominalMS},         // 500..700 and one more to make four
	} {
		if got := sp.slowdown(at(c.a), at(c.b)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("slowdown(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if got, want := sp.cpuSlowdown(at(0), at(100)), (3+3+6+6)/4.0/2/calNominalCPUMS; math.Abs(got-want) > 1e-9 {
		t.Errorf("cpuSlowdown(0, 100) = %v, want %v", got, want)
	}
	if got := newSpeedometer().slowdown(t0, t0); got != 1 {
		t.Errorf("slowdown with no units = %v, want 1", got)
	}
}
