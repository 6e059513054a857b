// Package exec is the parallel execution layer of CQA/CDB. It sits
// between the algebra (package cqa) and the data model (package relation)
// and turns the embarrassingly parallel inner loops of the CQA operators
// — the per-tuple-pair satisfiability checks that the closure principle
// (paper §2.5) forces on Select, Project, Join, Intersect and Difference —
// into fan-outs over a bounded worker pool.
//
// The design contract is determinism: Map assigns every work item a fixed
// index, each item appends its results (none, one or several) to a slice
// it is handed, and the pool gathers the results of its contiguous blocks
// of items in block order, so a parallel operator run is byte-identical to
// the sequential one. Parallelism only changes wall time, never output.
// Nothing is allocated per item: the inline path grows one slice with the
// survivors, the pool writes into one buffer per fan-out. Below an input-size
// threshold (DefaultSeqThreshold; only tests set another) the pool is
// bypassed entirely and work runs inline on the calling goroutine.
//
// A *Context carries the policy (worker count, sequential threshold) and
// collects per-operator statistics (tuples in/out, satisfiability checks,
// pruned-unsatisfiable count, wall time). The nil *Context is valid
// everywhere and means "sequential, no stats": operators thread a Context
// unconditionally and callers that do not care pass nil.
//
// The context is also where the observability layer (package obs) hooks
// in: an optional Tracer collects a hierarchical span tree (query →
// statement → plan node → operator → fan-out) rendered as an EXPLAIN
// ANALYZE-style plan tree, and an optional Metrics registry aggregates
// per-operator counters and latencies for Prometheus scraping. Both are
// nil by default and cost only pointer tests when off; operator outputs
// are byte-identical with observability on or off.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cdb/internal/constraint"
	"cdb/internal/obs"
)

// DefaultSeqThreshold is the input size below which Map runs inline on
// the calling goroutine when the Context does not set its own threshold.
// Fanning out a handful of cheap checks costs more in scheduling than it
// saves; the default is sized so that only inputs with real work reach
// the pool.
const DefaultSeqThreshold = 64

// Context carries the parallel execution policy and collects per-operator
// statistics. The zero value and the nil pointer are both valid: a nil
// *Context executes sequentially and records nothing, the zero value
// executes with GOMAXPROCS workers and the default threshold.
//
// A Context may be reused across operators and queries; Stats accumulates
// until Reset. The policy fields must not be mutated while an operator is
// running.
type Context struct {
	// Parallelism is the worker-pool size. Zero or negative means
	// GOMAXPROCS(0). One forces sequential execution.
	Parallelism int

	// SeqThreshold is the input size (work items: tuples for Select /
	// Project / Difference, tuple pairs for Join) below which operators
	// run sequentially. Zero or negative means DefaultSeqThreshold. It is
	// not a user-facing knob: no flag or session option sets it; tests set
	// it to 1 to parallelise everything.
	SeqThreshold int

	// NoPrune runs the binary CQA operators (join, intersect, difference)
	// without their filter stage: the unfiltered nested loop that the
	// pruning-equivalence tests and bench_test.go compare the filtered
	// pipeline against. It is the reference path, not a user-facing knob:
	// no CLI flag or session option sets it, and the filter is always on
	// otherwise — including on the nil Context — because it never changes
	// output.
	NoPrune bool

	// PlanMode pins which per-pair deciders the CQA operators run. Empty
	// or PlanAuto — the zero value, correct for every caller — lets the
	// refine stage pick, per candidate pair, the cheapest decider that is
	// exact on it; PlanDense is the forcing switch that leaves every pair
	// to the sat-cache and Fourier–Motzkin, which is how the
	// equivalence tests, the oracle and BenchmarkPairingModes hold the
	// fast deciders against the reference. Like NoPrune it is not a
	// user-facing knob: no flag or session option sets it. Outputs are
	// byte-identical across the modes: every decider emits the same
	// canonical tuple.
	PlanMode string

	// Ctx, when non-nil, bounds every fan-out run under this context:
	// Map (and through it each CQA operator's per-tuple loop) stops
	// claiming work items once Ctx is done and returns Ctx's error, and
	// the statement loops in the query and calculus front ends check it
	// between statements. This is how a server-side deadline or a client
	// disconnect stops a query mid-batch instead of burning workers to
	// the end of the pair space. Nil — including on the nil Context —
	// means never cancelled. Like the other policy fields it must not be
	// replaced while an operator is running; the server serialises
	// queries per session, which makes the per-request swap safe.
	Ctx context.Context

	// SatCache, when non-nil, memoizes the satisfiability decisions that
	// operators route through this context (see OpRecorder.Satisfiable and
	// SatFunc), keyed by canonical-form fingerprint. It is safe under the
	// worker pool and may be shared across contexts and queries. Nil means
	// every decision runs the raw Fourier-Motzkin eliminator.
	SatCache *constraint.SatCache

	// Tracer, when non-nil, receives a hierarchical span for every plan
	// node, operator invocation and pool fan-out executed under this
	// context (see BeginSpan and OpRecorder). Nil disables tracing.
	Tracer *obs.Tracer

	// Metrics, when non-nil, receives every operator record: one
	// cdb_op_<name>_total{op} family per obs.OpCounters row, and
	// cdb_op_seconds{op}. Nil disables metric emission. The sat-cache and
	// Fourier-Motzkin families are process-level: the daemon registers
	// them once, beside its own (server.installMetrics).
	Metrics *obs.Registry

	mu    sync.Mutex
	ops   []OpStats
	spans []*obs.Span // active span stack (plan-tree level; LIFO)
}

// New returns a Context with the given worker-pool size (0 = GOMAXPROCS)
// and the default sequential threshold.
func New(parallelism int) *Context {
	return &Context{Parallelism: parallelism}
}

// Workers returns the effective worker-pool size.
func (c *Context) Workers() int {
	if c == nil || c.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Parallelism
}

func (c *Context) threshold() int {
	if c == nil || c.SeqThreshold <= 0 {
		return DefaultSeqThreshold
	}
	return c.SeqThreshold
}

// ParallelFor reports whether a fan-out over n work items will use the
// worker pool (rather than run inline).
func (c *Context) ParallelFor(n int) bool {
	return c != nil && c.Workers() > 1 && n >= c.threshold()
}

// PruneEnabled reports whether the binary operators should run their
// filter stage. True on the nil Context: pruning never changes output,
// so it needs no opt-in.
func (c *Context) PruneEnabled() bool { return c == nil || !c.NoPrune }

// Plan modes of the CQA operators: the values of Context.PlanMode, each a
// set of per-pair deciders (internal/cqa/pairing.go). PlanDense runs
// neither fast decider and leaves every pair decision to the sat-cache /
// Fourier–Motzkin — the reference the other deciders are compared
// against. PlanAuto runs the whole decider list.
const (
	PlanAuto  = "auto"
	PlanDense = "dense"
)

// PlanIndex, PlanSweep and PlanVector are retired labels: the R*-tree probe
// and interval-sweep enumerations (neither won a measured workload) and the
// forced clip-everything mode (auto decides box pairs on their envelopes,
// and internal/vector's tests hold the clipper to BoxMerge on boxes).
// Nothing sets, emits or accepts them; the names stay only because the
// frozen repository benchmark still reports an always-zero share for each.
const (
	PlanIndex  = "index"
	PlanSweep  = "sweep"
	PlanVector = "vector"
)

// Plan returns the effective planning mode: PlanAuto on the nil Context
// or when PlanMode is unset.
func (c *Context) Plan() string {
	if c == nil || c.PlanMode == "" {
		return PlanAuto
	}
	return c.PlanMode
}

// Err reports why the context's Ctx was cancelled: nil while it is live
// (or when no Ctx is set), context.Canceled / context.DeadlineExceeded
// after. Operators and statement loops call it at their checkpoints; the
// nil Context is never cancelled.
func (c *Context) Err() error {
	if c == nil || c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// SatFunc returns the context's memoized decision function for threading
// into constraint.*With procedures (SimplifyWith, EntailsWith).
// Nil — meaning raw Fourier-Motzkin — on the nil Context or when no
// SatCache is configured.
func (c *Context) SatFunc() constraint.SatFunc {
	if c == nil || c.SatCache == nil {
		return nil
	}
	cache := c.SatCache
	return func(j constraint.Conjunction) bool {
		sat, _ := cache.Satisfiable(j)
		return sat
	}
}

// Map runs fn(i, out) for every i in [0, n) and returns every item's
// results concatenated in index order. fn appends item i's results — none,
// one or several — to out and returns the extended slice; it may read the
// elements it was handed (earlier items' results) but must not change them
// or keep out. Nothing is allocated per item: the inline path appends every
// item into one slice.
//
// When the Context parallelises (see ParallelFor) the items are spread over
// a bounded worker pool that claims contiguous blocks of indices from a
// shared atomic counter (a worker runs its block left to right, then claims
// the next unclaimed one; there are no per-worker queues and no stealing
// between them). The block size follows from n and the worker count alone —
// about eight blocks per worker, enough to even out items of unequal cost.
// The fan-out allocates one buffer of n results, each block appends into its
// own region of it (one slot per item), and compact gathers the blocks in
// block order, so output is identical to the sequential path whatever the
// scheduling. The result's length is its capacity, and its backing array is
// at most twice its length.
//
// On error the lowest-index error is returned (matching what a sequential
// left-to-right loop would hit first). An error also cancels the fan-out:
// no worker starts an item at or above the lowest failing index known so
// far, so later indices short-circuit. Because blocks are claimed in
// ascending order and a worker stops short only of indices above a failing
// one, every index below an executed failing index has itself been
// executed, which is what keeps the lowest-index-error contract exact under
// cancellation. fn may still have been called for some later indices
// (those started before the failure was known), so fn must be safe to call
// for any index regardless of other indices' failures. fn must not mutate
// shared state without its own synchronisation.
//
// A panic in fn is that index's error (a *PanicError carrying the value
// and the stack), on the pool and on the inline path alike: a pool
// goroutine has no caller to unwind into, so an unrecovered panic there
// would end the process and every session with it. Everything above
// holds for it as for any other error.
//
// When the context carries a Ctx, it is checked before every item, inline
// and on the pool: once it is cancelled no new item starts and Map returns
// the context's error (fn errors from items that ran still win, preserving
// the lowest-index contract for work that actually ran). An item already
// inside fn finishes that call — cancellation is a checkpoint between
// items, not preemption — so fn should itself watch Ctx if a single item
// can block for long.
//
// When the context traces (an operator span is open), the parallel path
// opens a "fanout" child span recording the pool's shape and health:
// items, workers, summed queue wait (delay between the fan-out start
// and each worker's first claim) and per-worker busy time (summed and
// maximum), which is how pool starvation and skew show up in EXPLAIN.
func Map[T any](c *Context, n int, fn func(i int, out []T) ([]T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if !c.ParallelFor(n) {
		return mapInline(c, n, fn)
	}
	workers := min(c.Workers(), n)
	size := (n + 8*workers - 1) / (8 * workers)
	buf := make([]T, n)
	parts := make([][]T, (n+size-1)/size) // block b's results, in buf[b*size:] unless it outgrew that region
	ws := make([]worker, workers)
	fanout := c.currentSpan().StartChild("fanout", "")
	traced := fanout != nil
	var start time.Time
	if traced {
		start = time.Now()
	}
	var done <-chan struct{}
	if c != nil && c.Ctx != nil {
		done = c.Ctx.Done()
	}
	var next atomic.Int64
	var failAt atomic.Int64 // the lowest failing index known; no item at or above it starts
	failAt.Store(int64(n))
	run := func(w int) {
		me := &ws[w]
		cur := -1 // the index inside fn; a panic becomes its error
		defer func() {
			if r := recover(); r != nil {
				me.fail(cur, newPanicError(r), &failAt)
			}
		}()
		if traced {
			me.queue = time.Since(start)
		}
		for {
			b := int(next.Add(1)) - 1
			lo := b * size
			if lo >= n {
				return
			}
			hi := min(lo+size, n)
			var t0 time.Time
			if traced {
				t0 = time.Now()
			}
			part := buf[lo:lo:hi]
			for cur = lo; cur < hi; cur++ {
				if int64(cur) >= failAt.Load() {
					return
				}
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				var err error
				if part, err = fn(cur, part); err != nil {
					me.fail(cur, err, &failAt)
					return
				}
			}
			parts[b] = part
			if traced {
				me.busy += time.Since(t0)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0) // the calling goroutine is worker 0
	wg.Wait()
	if traced {
		var queue, busy, maxBusy time.Duration
		for i := range ws {
			queue += ws[i].queue
			busy += ws[i].busy
			maxBusy = max(maxBusy, ws[i].busy)
		}
		fanout.Set("items", int64(n))
		fanout.Set("workers", int64(workers))
		fanout.Set("queue_ns", queue.Nanoseconds())
		fanout.Set("busy_ns", busy.Nanoseconds())
		fanout.Set("maxbusy_ns", maxBusy.Nanoseconds())
		fanout.End()
	}
	var err error
	errAt := n
	for i := range ws {
		if ws[i].err != nil && ws[i].errAt < errAt {
			err, errAt = ws[i].err, ws[i].errAt
		}
	}
	if err != nil {
		return nil, err
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return compact(buf, parts, size), nil
}

// worker is one pool worker's state for one fan-out: its first error.
type worker struct {
	err         error
	errAt       int
	queue, busy time.Duration // traced only
}

// fail records the error of item i, the worker's first and last, and lowers
// failAt to i unless a lower failing index is already known.
func (w *worker) fail(i int, err error, failAt *atomic.Int64) {
	w.err, w.errAt = err, i
	for {
		old := failAt.Load()
		if int64(i) >= old || failAt.CompareAndSwap(old, int64(i)) {
			return
		}
	}
}

// compact returns the blocks' results in block order: moved down within buf
// when every block fit its region, buf's tail cleared for the collector (or
// copied out, under half full, so that a kept result pins no input-sized
// array); else — a block outgrew its region — copied into one exact slice.
func compact[T any](buf []T, parts [][]T, size int) []T {
	total, spilled := 0, false
	for b, p := range parts {
		total += len(p)
		spilled = spilled || len(p) > min(size, len(buf)-b*size)
	}
	if spilled {
		out := make([]T, 0, total)
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	k := 0
	for _, p := range parts {
		k += copy(buf[k:], p)
	}
	if 2*total < len(buf) {
		out := make([]T, total)
		copy(out, buf)
		return out
	}
	clear(buf[total:])
	return buf[:total:total]
}

// mapInline is Map's sequential path: fn runs on the calling goroutine,
// left to right, appending into one slice and stopping at the first error.
// The slice starts with room for a few results, which is all a filter over
// few survivors needs.
func mapInline[T any](c *Context, n int, fn func(i int, out []T) ([]T, error)) (out []T, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, newPanicError(r)
		}
	}()
	out = make([]T, 0, min(n, 8))
	for i := 0; i < n; i++ {
		if err = c.Err(); err != nil {
			return nil, err
		}
		if out, err = fn(i, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// PanicError is a panic raised inside a Map work item, reported as that
// item's error so one faulty tuple fails its query instead of the process.
type PanicError struct {
	Value any    // what was passed to panic
	Stack []byte // the panicking goroutine's stack
}

// newPanicError must be called from the deferred function that recovered
// r: the panicking frames are still on the stack there.
func newPanicError(r any) *PanicError {
	return &PanicError{Value: r, Stack: debug.Stack()}
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: panic in worker: %v\n%s", e.Value, e.Stack)
}

// --- tracing ---

// Tracing reports whether the context carries a tracer.
func (c *Context) Tracing() bool { return c != nil && c.Tracer != nil }

// BeginSpan opens a span under the context's current span (or as a new
// root) and makes it current. Callers must close it with EndSpan in
// LIFO order — the plan-tree evaluation that opens these spans is
// single-goroutine, which is what makes a plain stack sound; only the
// counters inside a span are touched by pool workers. Nil-safe: without
// a tracer it returns nil and EndSpan(nil) is a no-op.
func (c *Context) BeginSpan(name, detail string) *obs.Span {
	if !c.Tracing() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var sp *obs.Span
	if len(c.spans) > 0 {
		sp = c.spans[len(c.spans)-1].StartChild(name, detail)
	} else {
		sp = c.Tracer.StartSpan(name, detail)
	}
	c.spans = append(c.spans, sp)
	return sp
}

// EndSpan closes sp and pops it (and anything left above it) off the
// context's span stack.
func (c *Context) EndSpan(sp *obs.Span) {
	if sp == nil || c == nil {
		return
	}
	c.mu.Lock()
	for i := len(c.spans) - 1; i >= 0; i-- {
		if c.spans[i] == sp {
			c.spans = c.spans[:i]
			break
		}
	}
	c.mu.Unlock()
	sp.End()
}

// currentSpan returns the innermost open span (nil when not tracing).
func (c *Context) currentSpan() *obs.Span {
	if !c.Tracing() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.spans) == 0 {
		return nil
	}
	return c.spans[len(c.spans)-1]
}
