package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// This file is the metrics half of the observability layer: a small
// registry of counters, gauges and histograms with lock-free hot paths
// (atomic adds; the registry mutex is touched only on registration and
// scrape), rendered in the Prometheus text exposition format and as an
// expvar snapshot. It covers exactly what the engine needs — int64
// counters/gauges, callback metrics reading existing atomic state (the
// sat-cache counters, constraint.DecisionCount), and latency histograms
// with fixed buckets — not the general labelled-metrics problem: one
// optional label key per family is enough to split series per operator
// or per route.

// DefLatencyBuckets are the default histogram bounds for operator,
// query and request latencies, in seconds (10µs .. 10s, decade steps).
var DefLatencyBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter (n must be non-negative for Prometheus
// semantics; this is not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64 metric.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram of float64 observations
// (typically seconds). Observations are lock-free.
type Histogram struct {
	bounds  []float64      // upper bounds, ascending; +Inf implicit
	buckets []atomic.Int64 // len(bounds)+1
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one metric name: its metadata plus the series under it (one
// per label value; the empty label value is the unlabelled series).
type family struct {
	name, help, typ string
	label           string    // label key for vec families, "" otherwise
	bounds          []float64 // histogram families

	mu     sync.Mutex
	series map[string]any // label value -> *Counter | *Gauge | func() int64 | *Histogram
	order  []string
}

// Registry holds metric families and renders them for scraping. The
// zero value is not usable; construct with NewRegistry. All methods are
// safe for concurrent use. Registration methods are idempotent: asking
// for an existing name returns the existing metric, and panic only on a
// type/label conflict (a programming error).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
	ops  sync.Map // operator name -> *opSeries, OpStats.AddTo's resolved series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

func (r *Registry) family(name, help, typ, label string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, label: label,
			bounds: bounds, series: map[string]any{}}
		r.fams[name] = f
		return f
	}
	if f.typ != typ || f.label != label {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s/label=%q (was %s/label=%q)",
			name, typ, label, f.typ, f.label))
	}
	return f
}

func (f *family) get(labelValue string, make func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.series[labelValue]
	if !ok {
		m = make()
		f.series[labelValue] = m
		f.order = append(f.order, labelValue)
	}
	return m
}

// NewCounter registers (or fetches) an unlabelled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.family(name, help, typeCounter, "", nil)
	return f.get("", func() any { return &Counter{} }).(*Counter)
}

// NewCounterFunc registers a counter whose value is read from fn at
// scrape time — the bridge to state that already lives in an atomic
// elsewhere (constraint.DecisionCount, the sat-cache counters).
func (r *Registry) NewCounterFunc(name, help string, fn func() int64) {
	f := r.family(name, help, typeCounter, "", nil)
	f.get("", func() any { return fn })
}

// NewGaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() int64) {
	f := r.family(name, help, typeGauge, "", nil)
	f.get("", func() any { return fn })
}

// NewHistogram registers (or fetches) an unlabelled histogram with the
// given upper bounds (nil = DefLatencyBuckets).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	f := r.family(name, help, typeHistogram, "", bounds)
	return f.get("", func() any { return newHistogram(bounds) }).(*Histogram)
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// CounterVec is a family of counters split by one label.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a counter family with one label key.
func (r *Registry) CounterVec(name, help, label string) CounterVec {
	return CounterVec{r.family(name, help, typeCounter, label, nil)}
}

// With returns the counter for the given label value.
func (v CounterVec) With(labelValue string) *Counter {
	return v.f.get(labelValue, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a family of gauges split by one label.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a gauge family with one label key.
// The canonical use is an info-style metric (cdb_build_info) whose
// label carries the fact and whose value is always 1.
func (r *Registry) GaugeVec(name, help, label string) GaugeVec {
	return GaugeVec{r.family(name, help, typeGauge, label, nil)}
}

// With returns the gauge for the given label value.
func (v GaugeVec) With(labelValue string) *Gauge {
	return v.f.get(labelValue, func() any { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a family of histograms split by one label.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a histogram family with one label
// key and the given bounds (nil = DefLatencyBuckets).
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) HistogramVec {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	return HistogramVec{r.family(name, help, typeHistogram, label, bounds)}
}

// With returns the histogram for the given label value.
func (v HistogramVec) With(labelValue string) *Histogram {
	return v.f.get(labelValue, func() any { return newHistogram(v.f.bounds) }).(*Histogram)
}

// --- exposition ---

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (families sorted by name, series by label value, so
// output is deterministic and golden-testable).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	f.mu.Lock()
	values := append([]string{}, f.order...)
	series := make([]any, len(values))
	for i, lv := range values {
		series[i] = f.series[lv]
	}
	f.mu.Unlock()
	sort.Sort(&labelSort{values, series})

	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
		return err
	}
	for i, m := range series {
		labels := ""
		if f.label != "" {
			labels = fmt.Sprintf("{%s=%q}", f.label, values[i])
		}
		switch m := m.(type) {
		case *Counter:
			fmt.Fprintf(w, "%s%s %d\n", f.name, labels, m.Value())
		case *Gauge:
			fmt.Fprintf(w, "%s%s %d\n", f.name, labels, m.Value())
		case func() int64:
			fmt.Fprintf(w, "%s%s %d\n", f.name, labels, m())
		case *Histogram:
			cum := int64(0)
			for bi, bound := range m.bounds {
				cum += m.buckets[bi].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n",
					f.name, mergeLE(f.label, values[i], formatFloat(bound)), cum)
			}
			cum += m.buckets[len(m.bounds)].Load()
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, mergeLE(f.label, values[i], "+Inf"), cum)
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labels, formatFloat(m.Sum()))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, labels, m.Count())
		}
	}
	return nil
}

func mergeLE(labelKey, labelValue, le string) string {
	if labelKey == "" {
		return fmt.Sprintf(`{le=%q}`, le)
	}
	return fmt.Sprintf(`{%s=%q,le=%q}`, labelKey, labelValue, le)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type labelSort struct {
	values []string
	series []any
}

func (s *labelSort) Len() int           { return len(s.values) }
func (s *labelSort) Less(i, j int) bool { return s.values[i] < s.values[j] }
func (s *labelSort) Swap(i, j int) {
	s.values[i], s.values[j] = s.values[j], s.values[i]
	s.series[i], s.series[j] = s.series[j], s.series[i]
}

// --- expvar bridge ---

// Snapshot returns the registry as a plain value tree for expvar (and
// tests): metric name → value, label value → value for vec families,
// {count, sum} for histograms.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()

	out := map[string]any{}
	for _, f := range fams {
		f.mu.Lock()
		values := append([]string{}, f.order...)
		series := make(map[string]any, len(values))
		for _, lv := range values {
			series[lv] = snapshotMetric(f.series[lv])
		}
		f.mu.Unlock()
		if f.label == "" {
			out[f.name] = series[""]
		} else {
			out[f.name] = series
		}
	}
	return out
}

func snapshotMetric(m any) any {
	switch m := m.(type) {
	case *Counter:
		return m.Value()
	case *Gauge:
		return m.Value()
	case func() int64:
		return m()
	case *Histogram:
		return map[string]any{"count": m.Count(), "sum": m.Sum()}
	}
	return nil
}

var expvarPublished sync.Map // name -> struct{}

// PublishExpvar exposes the registry under the given expvar name
// (idempotent per name; expvar itself panics on duplicates).
func (r *Registry) PublishExpvar(name string) {
	if _, loaded := expvarPublished.LoadOrStore(name, struct{}{}); loaded {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
