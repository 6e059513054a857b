package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("cdb_things_total", "Things.")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	g := r.GaugeVec("cdb_level", "Level.", "k").With("a")
	g.Set(10)
	g.Set(7)
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}
	h := r.NewHistogram("cdb_latency_seconds", "Latency.", []float64{0.001, 0.1})
	h.Observe(0.0005) // bucket le=0.001
	h.Observe(0.05)   // bucket le=0.1
	h.Observe(5)      // +Inf bucket
	if h.Count() != 3 {
		t.Errorf("histogram count = %d, want 3", h.Count())
	}
	if got := h.Sum(); got < 5.05 || got > 5.06 {
		t.Errorf("histogram sum = %v, want ~5.0505", got)
	}
}

func TestRegistrationIdempotentAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("cdb_x_total", "X.")
	b := r.NewCounter("cdb_x_total", "X.")
	if a != b {
		t.Error("re-registering the same counter must return the same metric")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge must panic")
		}
	}()
	r.NewGaugeFunc("cdb_x_total", "X.", func() int64 { return 0 })
}

func TestVecFamilies(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("cdb_op_total", "Per-op.", "op")
	v.With("join").Add(3)
	v.With("select").Add(1)
	v.With("join").Inc()
	if got := v.With("join").Value(); got != 4 {
		t.Errorf("join series = %d, want 4", got)
	}
	hv := r.HistogramVec("cdb_op_seconds", "Per-op latency.", "op", nil)
	hv.With("join").Observe(0.01)
	if hv.With("join").Count() != 1 {
		t.Error("histogram vec series lost an observation")
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("cdb_c_total", "")
	h := r.NewHistogram("cdb_h_seconds", "", nil)
	v := r.CounterVec("cdb_v_total", "", "op")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.001)
				v.With("join").Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 || v.With("join").Value() != 8000 {
		t.Errorf("lost updates: counter=%d hist=%d vec=%d",
			c.Value(), h.Count(), v.With("join").Value())
	}
	if got := h.Sum(); got < 7.99 || got > 8.01 {
		t.Errorf("histogram sum = %v, want ~8.0 (CAS accumulation lost adds)", got)
	}
}

// buildMetricsFixture fills a registry the way the engine does: plain
// counters, a function-backed counter, a gauge, per-operator vec
// families and a fixed-bucket histogram.
func buildMetricsFixture() *Registry {
	r := NewRegistry()
	r.NewCounterFunc("cdb_fm_decisions_total",
		"Raw Fourier-Motzkin satisfiability decisions (process-wide).",
		func() int64 { return 1234 })
	r.NewGaugeFunc("cdb_satcache_entries", "Live sat-cache entries.", func() int64 { return 256 })
	sat := r.CounterVec("cdb_op_sat_checks_total", "Satisfiability decisions per operator.", "op")
	sat.With("select").Add(42)
	sat.With("join").Add(900)
	h := r.NewHistogram("cdb_op_seconds", "Operator wall time.", []float64{0.001, 0.1})
	h.Observe(0.0004)
	h.Observe(0.02)
	h.Observe(0.02)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildMetricsFixture().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.golden", buf.Bytes())
}

func TestWritePrometheusDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	r := buildMetricsFixture()
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two scrapes of unchanged state differ")
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	var buf bytes.Buffer
	if err := buildMetricsFixture().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`cdb_op_seconds_bucket{le="0.001"} 1`,
		`cdb_op_seconds_bucket{le="0.1"} 3`,
		`cdb_op_seconds_bucket{le="+Inf"} 3`,
		`cdb_op_seconds_count 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
