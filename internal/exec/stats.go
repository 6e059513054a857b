package exec

import (
	"fmt"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"cdb/internal/constraint"
	"cdb/internal/obs"
)

// OpStats is one operator invocation's execution record; it lives beside
// its counter table in package obs (obs.OpCounters).
type OpStats = obs.OpStats

// OpRecorder accumulates one operator invocation's statistics. Its
// counter methods are safe to call concurrently from pool workers, and
// every method is a no-op on the nil receiver, so operators record
// unconditionally whether or not a Context is present.
type OpRecorder struct {
	// s is the record Done appends. Its counters are added with
	// sync/atomic (pool workers record concurrently); Op and TuplesIn are
	// set by StartOp and Strategy and EstPairs by Pairing, before the
	// fan-out starts. It is the first field so that its int64 counters are
	// 64-bit aligned on 32-bit platforms too.
	s     OpStats
	c     *Context
	start time.Time
	span  *obs.Span
}

// EnvHit records one pair decision answered on the two envelopes (both
// sides non-empty boxes). Like VectorHit it counts into its own column
// (and pruned on unsat), not into sat.
func (r *OpRecorder) EnvHit(sat bool) {
	if r == nil {
		return
	}
	atomic.AddInt64(&r.s.EnvHits, 1)
	if !sat {
		atomic.AddInt64(&r.s.PrunedUnsat, 1)
	}
}

// VectorHit records one satisfiability decision answered geometrically
// by the vector fast path, with floatReject reporting that the cheap
// float bounding-box filter already decided it. It counts into vec (and
// float_rej, and pruned on unsat) but NOT into sat: sat means decisions
// routed through the sat oracle (cache + eliminator), preserving the
// invariant cache_hits + cache_misses = sat whenever a cache is
// configured. The total decision count of an operator is therefore
// sat + vec + env.
func (r *OpRecorder) VectorHit(sat, floatReject bool) {
	if r == nil {
		return
	}
	atomic.AddInt64(&r.s.VectorHits, 1)
	if floatReject {
		atomic.AddInt64(&r.s.FloatRejects, 1)
	}
	if !sat {
		atomic.AddInt64(&r.s.PrunedUnsat, 1)
	}
}

// VectorFallback records one decision the vector fast path declined
// (caller then decides through Satisfiable, which does its own counting).
func (r *OpRecorder) VectorFallback() {
	if r == nil {
		return
	}
	atomic.AddInt64(&r.s.VectorFalls, 1)
}

// StartOp opens a recorder for one operator invocation. Returns nil (a
// valid no-op recorder) on the nil Context. When the context traces,
// the recorder is also a span: it opens a child of the current span
// (typically the plan node that invoked the operator) and deposits its
// counters there on Done, so the flat -stats table and the EXPLAIN tree
// are two views of the same numbers.
func (c *Context) StartOp(op string, tuplesIn int) *OpRecorder {
	if c == nil {
		return nil
	}
	return &OpRecorder{
		c:     c,
		start: time.Now(),
		span:  c.BeginSpan(op, ""),
		s:     OpStats{Op: op, TuplesIn: int64(tuplesIn)},
	}
}

// SatCheck records one satisfiability decision and, when it came out
// unsatisfiable, one pruned candidate.
func (r *OpRecorder) SatCheck(sat bool) {
	if r == nil {
		return
	}
	atomic.AddInt64(&r.s.SatChecks, 1)
	if !sat {
		atomic.AddInt64(&r.s.PrunedUnsat, 1)
	}
}

// Satisfiable decides j through the context's memoized engine and records
// the decision: one sat-check, one pruned candidate if unsatisfiable, and —
// when the cache is enabled — one hit or miss. With no cache configured, or
// on the nil recorder, the nil *constraint.SatCache runs the raw
// eliminator. This is the decision entry point the CQA operators use.
func (r *OpRecorder) Satisfiable(j constraint.Conjunction) bool {
	sat, hit := r.cache().Satisfiable(j)
	r.decided(sat, hit)
	return sat
}

// SatisfiablePair decides a ∧ b — the refine step of join, intersect and
// select, and difference's intersection pre-filter — and returns its
// canonical form a.Merge(b).Canon() when it is satisfiable (the
// conjunction is meaningless otherwise). With a sat-cache configured the
// pair is looked up under its two input fingerprints first
// (constraint.SatCache.SatisfiablePair), so a remembered pair is neither
// merged nor canonicalised again; the nil cache merges, canonicalises and
// decides it by the raw eliminator. Either way it records exactly what
// Satisfiable records.
func (r *OpRecorder) SatisfiablePair(a, b constraint.Conjunction) (constraint.Conjunction, bool) {
	merged, sat, hit := r.cache().SatisfiablePair(a, b)
	r.decided(sat, hit)
	return merged, sat
}

// cache is the sat-cache the recorder's decisions go through: nil — the raw
// eliminator — on the nil recorder or when the context configures none.
func (r *OpRecorder) cache() *constraint.SatCache {
	if r == nil {
		return nil
	}
	return r.c.SatCache
}

// decided records one decision routed through the context's oracle: a
// sat-check, a hit or a miss when a cache is configured, and — whenever the
// cache did not answer — one run of the eliminator. Counting the run here,
// on the recorder that asked, is what keeps fm exact under concurrent
// sessions; constraint.DecisionCount is the process total only. No-op on
// the nil recorder.
func (r *OpRecorder) decided(sat, hit bool) {
	if r == nil {
		return
	}
	r.SatCheck(sat)
	if hit {
		atomic.AddInt64(&r.s.CacheHits, 1)
		return
	}
	atomic.AddInt64(&r.s.FMDecisions, 1)
	if r.c.SatCache != nil {
		atomic.AddInt64(&r.s.CacheMisses, 1)
	}
}

// Pairs records a binary operator's filter stage: total is the candidate
// pair space the dense nested loop would enumerate, pruned the pairs the
// filter rejected before any constraint work (partition bucket mismatch
// or disjoint envelopes). Filter-pruned pairs also count as pruned
// candidates — the `pruned` counter reads filter rejects plus
// unsatisfiable sat decisions, so with the filter off the same pairs
// surface there through SatCheck instead. Safe from pool workers.
func (r *OpRecorder) Pairs(total, pruned int64) {
	if r == nil {
		return
	}
	atomic.AddInt64(&r.s.PairsTotal, total)
	atomic.AddInt64(&r.s.PairsPruned, pruned)
	atomic.AddInt64(&r.s.PrunedUnsat, pruned)
}

// Pruned records one candidate a filter stage rejected outside a pair
// space — a selected tuple whose envelope misses the condition's: it counts
// in pruned, not in sat or pairs_pruned. Safe from pool workers.
func (r *OpRecorder) Pruned() {
	if r == nil {
		return
	}
	atomic.AddInt64(&r.s.PrunedUnsat, 1)
}

// Pairing records the filter stage's decision for a binary operator: the
// enumeration that ran (dense or sweep — auto already resolved) and the
// estimator's upper bound on surviving pairs. Call it once,
// before the refine fan-out starts — unlike the counters it is not
// synchronised, mirroring how the strategy decision itself happens on
// the plan-tree goroutine.
func (r *OpRecorder) Pairing(strategy string, estPairs int64) {
	if r == nil {
		return
	}
	r.s.Strategy = strategy
	r.s.EstPairs = estPairs
}

// AddOut records n output tuples.
func (r *OpRecorder) AddOut(n int) {
	if r == nil {
		return
	}
	atomic.AddInt64(&r.s.TuplesOut, int64(n))
}

// Done closes the recorder and appends the operator's record to the
// Context. parallel reports whether the worker pool was used. Every
// fan-out has joined by now, so the counters are read plainly. With
// tracing on the record is deposited on the operator's span, which Done
// closes, and with a Metrics registry installed it is folded into the
// per-operator metric families.
func (r *OpRecorder) Done(parallel bool) {
	if r == nil {
		return
	}
	s := r.s
	s.Wall, s.Parallel = time.Since(r.start), parallel
	if r.span != nil {
		s.Annotate(r.span)
		r.c.EndSpan(r.span)
	}
	if m := r.c.Metrics; m != nil {
		s.AddTo(m)
	}
	r.c.mu.Lock()
	r.c.ops = append(r.c.ops, s)
	r.c.mu.Unlock()
}

// Stats returns a copy of the operator records collected so far, in
// completion order.
func (c *Context) Stats() []OpStats {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]OpStats{}, c.ops...)
}

// Reset discards the collected operator records.
func (c *Context) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.ops = nil
	c.mu.Unlock()
}

// FormatStats renders operator records as an aligned table (the -stats
// output of cmd/cqacdb): one row per record, one column per counter of
// obs.OpCounters, then the planner's estimate, wall time, pool use and
// strategy.
func FormatStats(stats []OpStats) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprint(w, "operator")
	for _, c := range obs.OpCounters {
		fmt.Fprint(w, "\t", c.Name)
	}
	fmt.Fprintln(w, "\test_pairs\twall\tmode\tstrategy")
	for i := range stats {
		s := &stats[i]
		fmt.Fprint(w, s.Op)
		for _, c := range obs.OpCounters {
			fmt.Fprint(w, "\t", *c.Field(s))
		}
		mode := "seq"
		if s.Parallel {
			mode = "par"
		}
		strategy := s.Strategy
		if strategy == "" {
			strategy = "-"
		}
		fmt.Fprintf(w, "\t%d\t%s\t%s\t%s\n", s.EstPairs, s.Wall.Round(time.Microsecond), mode, strategy)
	}
	w.Flush()
	return b.String()
}
