// Package obs is the observability layer of CQA/CDB: a hierarchical
// query tracer, a metrics registry with Prometheus text exposition, and
// an optional HTTP listener serving /metrics, expvar and net/http/pprof.
//
// The package is deliberately stdlib-only and imports nothing from the
// rest of the repository, so every layer — the constraint engine, the
// execution layer, the algebra, the catalog, the CLIs — can depend on it
// without cycles.
//
// The tracer answers the question the flat -stats table cannot: *where*
// inside a composed query plan the Fourier-Motzkin decisions, sat-cache
// misses and pool queueing happen. Spans form a tree (query → statement
// → plan node → operator → fan-out); each span carries named integer
// counters updated atomically from pool workers. FormatTree renders the
// tree EXPLAIN ANALYZE-style; TraceJSON exports it for machines.
//
// Everything is nil-safe: a nil *Tracer and a nil *Span accept every
// call as a no-op, so call sites instrument unconditionally and pay a
// single pointer test when observability is off.
package obs

import (
	"log/slog"
	"sort"
	"sync"
	"time"
)

// Tracer collects a forest of spans for one query session. The zero
// value is ready to use; the nil *Tracer is valid and records nothing.
//
// Spans are retained until Reset, so a long-lived session (the cqacdb
// REPL) should Reset between programs the way it resets -stats.
type Tracer struct {
	// SlowThreshold, when positive, makes every span whose wall time
	// reaches it log itself through Logger on End (the -slowlog flag).
	SlowThreshold time.Duration

	// Logger receives slow-span reports. Nil disables slow logging even
	// with a threshold set.
	Logger *slog.Logger

	// Metrics, when non-nil, receives every finished span's latency in
	// the cdb_span_seconds histogram, labelled by span name.
	Metrics *Registry

	// Clock overrides time.Now for deterministic tests. Nil = time.Now.
	Clock func() time.Time

	// QueryID, when set, is the flight-recorder identity of the query
	// this tracer is collecting: every root span is stamped with a
	// "query_id" label (visible in EXPLAIN ANALYZE and trace JSON) and
	// every slow-span log record carries it, so a slow span in the logs
	// joins against the query history ring. Set it before the query
	// starts; the per-query tracer owners (the server and the CLIs)
	// reassign it between queries.
	QueryID string

	mu    sync.Mutex
	roots []*Span
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

func (t *Tracer) now() time.Time {
	if t.Clock != nil {
		return t.Clock()
	}
	return time.Now()
}

// StartSpan opens a root span. Nil-safe (returns a nil span).
func (t *Tracer) StartSpan(name, detail string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tracer: t, Name: name, Detail: detail, start: t.now()}
	if t.QueryID != "" {
		s.SetLabel("query_id", t.QueryID)
	}
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// Roots returns the root spans collected so far, in start order.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span{}, t.roots...)
}

// Reset discards all collected spans.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.roots = nil
	t.mu.Unlock()
}

// Span is one traced region: a named node of the query-execution tree
// carrying a wall-time interval and a set of named integer counters.
// Counter updates are safe from concurrent pool workers; opening child
// spans is safe from any goroutine. The nil *Span accepts every call.
type Span struct {
	Name   string // span kind: "query", "stmt", "join", "fanout", ...
	Detail string // human detail: the condition, the relation name, ...

	tracer *Tracer
	start  time.Time
	end    time.Time

	mu       sync.Mutex
	children []*Span
	counters map[string]int64
	labels   map[string]string
}

// StartChild opens a child span.
func (s *Span) StartChild(name, detail string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tracer: s.tracer, Name: name, Detail: detail, start: s.tracer.now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Set stores the named counter's value.
func (s *Span) Set(key string, n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64, 8)
	}
	s.counters[key] = n
	s.mu.Unlock()
}

// SetLabel stores a named string label on the span. Labels carry the
// non-numeric facts EXPLAIN ANALYZE wants per plan node — the physical
// planner's chosen pairing strategy, for one — and render ahead of the
// counters in FormatTree. Safe from concurrent pool workers.
func (s *Span) SetLabel(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.labels == nil {
		s.labels = make(map[string]string, 2)
	}
	s.labels[key] = value
	s.mu.Unlock()
}

// Labels returns a copy of the span's labels (nil when there are none).
func (s *Span) Labels() map[string]string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.labels) == 0 {
		return nil
	}
	out := make(map[string]string, len(s.labels))
	for k, v := range s.labels {
		out[k] = v
	}
	return out
}

// Counter returns the named counter's current value (0 when absent).
func (s *Span) Counter(key string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[key]
}

// Counters returns a copy of the span's counters.
func (s *Span) Counters() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.counters))
	for k, v := range s.counters {
		out[k] = v
	}
	return out
}

// CounterKeys returns the span's counter keys, sorted.
func (s *Span) CounterKeys() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	keys := make([]string, 0, len(s.counters))
	for k := range s.counters {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Children returns the span's children, in start order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span{}, s.children...)
}

// End closes the span, stamping its wall time, feeding the latency
// histogram (when the tracer has a Metrics registry) and logging the
// span when it is slower than the tracer's threshold. Idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.end.IsZero() {
		s.mu.Unlock()
		return
	}
	s.end = s.tracer.now()
	wall := s.end.Sub(s.start)
	s.mu.Unlock()

	t := s.tracer
	if t.Metrics != nil {
		t.Metrics.HistogramVec("cdb_span_seconds",
			"Span wall time by span name.", "span", DefLatencyBuckets).
			With(s.Name).Observe(wall.Seconds())
	}
	if t.SlowThreshold > 0 && wall >= t.SlowThreshold && t.Logger != nil {
		args := []any{"span", s.Name, "wall", wall}
		if t.QueryID != "" {
			args = append(args, "query", t.QueryID)
		}
		if s.Detail != "" {
			args = append(args, "detail", s.Detail)
		}
		for _, k := range s.CounterKeys() {
			args = append(args, k, s.Counter(k))
		}
		t.Logger.Warn("slow span", args...)
	}
}

// Wall returns the span's wall time: end-start once ended, zero before.
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// SumCounter totals the named counter over the forest rooted at spans.
func SumCounter(spans []*Span, key string) int64 {
	var total int64
	for _, sp := range spans {
		total += sp.Counter(key) + SumCounter(sp.Children(), key)
	}
	return total
}
