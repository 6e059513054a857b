// Package obs is the observability layer of CQA/CDB: a hierarchical
// query tracer, a metrics registry with Prometheus text exposition, and
// Mount, which serves /metrics, expvar and net/http/pprof on a caller's
// mux (cqacdbd's).
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
	"sync"
	"time"
)

// Tracer collects a forest of spans for one query session. The zero
// value is ready to use; the nil *Tracer is valid and records nothing.
//
// Spans are retained until Reset, so a long-lived session (the cqacdb
// REPL) should Reset between programs the way it resets -stats.
type Tracer struct {
	// Clock overrides time.Now for deterministic tests. Nil = time.Now.
	Clock func() time.Time

	// QueryID, when set, is the flight-recorder identity of the query
	// this tracer is collecting: every root span is stamped with a
	// "query_id" label (visible in EXPLAIN ANALYZE and trace JSON), so a
	// traced reply joins against the query history ring. Set it before
	// the query starts (the server does, per query).
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

// Children returns the span's children, in start order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span{}, s.children...)
}

// End closes the span, stamping its wall time. Idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = s.tracer.now()
	}
	s.mu.Unlock()
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
		total += sp.Counters()[key] + SumCounter(sp.Children(), key)
	}
	return total
}
