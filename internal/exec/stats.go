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

// OpStats is one operator invocation's execution record.
type OpStats struct {
	Op           string        // operator name: select, project, join, intersect, union, rename, difference
	TuplesIn     int64         // input tuples (both sides summed for binary operators)
	TuplesOut    int64         // output tuples
	SatChecks    int64         // satisfiability decisions made
	PrunedUnsat  int64         // candidates discarded: filter-stage rejects plus unsatisfiable sat decisions
	PairsTotal   int64         // binary operators: candidate tuple pairs enumerable (the dense n·m space)
	PairsPruned  int64         // binary operators: pairs rejected by the filter stage before any constraint work
	CacheHits    int64         // sat decisions answered by the memoized engine
	CacheMisses  int64         // sat decisions that ran the raw eliminator (cache enabled)
	FMDecisions  int64         // sat decisions this operator routed to the raw Fourier-Motzkin eliminator: every cache miss, or every sat-check without a cache
	EstPairs     int64         // binary operators: the planner's pre-execution estimate of surviving candidate pairs (upper bound; compare to PairsTotal-PairsPruned)
	Strategy     string        // binary operators: how candidate pairs were enumerated (dense, sweep); empty for unary operators
	EnvHits      int64         // pair decisions answered on the envelopes: both sides non-empty boxes, merged by interval intersection (no clip, no FM, no Merge+Canon)
	VectorHits   int64         // sat decisions answered by the vector fast path (exact polygon clipping, no FM)
	VectorFalls  int64         // vector-path fallbacks: decisions on polygon forms the clipper could not take (mixed variable pairs, extra variable, strict-degenerate) and handed to FM
	FloatRejects int64         // vector-path pairs rejected by the outward-rounded float bounding-box filter before any exact arithmetic
	Wall         time.Duration // wall time of the operator
	Parallel     bool          // whether the worker pool was used
}

// OpRecorder accumulates one operator invocation's statistics. Its
// counter methods are safe to call concurrently from pool workers, and
// every method is a no-op on the nil receiver, so operators record
// unconditionally whether or not a Context is present.
type OpRecorder struct {
	c            *Context
	op           string
	tuplesIn     int64
	start        time.Time
	span         *obs.Span
	satChecks    atomic.Int64
	pruned       atomic.Int64
	pairsTotal   atomic.Int64
	pairsPruned  atomic.Int64
	tuplesOut    atomic.Int64
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	fm           atomic.Int64
	envHits      atomic.Int64
	vectorHits   atomic.Int64
	vectorFalls  atomic.Int64
	floatRejects atomic.Int64
	estPairs     int64  // written by Pairing before the fan-out starts
	strategy     string // written by Pairing before the fan-out starts
}

// EnvHit records one pair decision answered on the two envelopes (both
// sides non-empty boxes). Like VectorHit it counts into its own column
// (and pruned on unsat), not into sat-checks.
func (r *OpRecorder) EnvHit(sat bool) {
	if r == nil {
		return
	}
	r.envHits.Add(1)
	if !sat {
		r.pruned.Add(1)
	}
}

// VectorHit records one satisfiability decision answered geometrically
// by the vector fast path, with floatReject reporting that the cheap
// float bounding-box filter already decided it. It counts into vec (and
// float-rej, and pruned on unsat) but NOT into sat-checks: sat-checks
// means decisions routed through the sat oracle (cache + eliminator),
// preserving the invariant cache-hits + cache-misses = sat-checks
// whenever a cache is configured. The total decision count of an
// operator is therefore sat-checks + vec + env.
func (r *OpRecorder) VectorHit(sat, floatReject bool) {
	if r == nil {
		return
	}
	r.vectorHits.Add(1)
	if floatReject {
		r.floatRejects.Add(1)
	}
	if !sat {
		r.pruned.Add(1)
	}
}

// VectorFallback records one decision the vector fast path declined
// (caller then decides through Satisfiable, which does its own counting).
func (r *OpRecorder) VectorFallback() {
	if r == nil {
		return
	}
	r.vectorFalls.Add(1)
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
		c: c, op: op, tuplesIn: int64(tuplesIn),
		start: time.Now(),
		span:  c.BeginSpan(op, ""),
	}
}

// SatCheck records one satisfiability decision and, when it came out
// unsatisfiable, one pruned candidate.
func (r *OpRecorder) SatCheck(sat bool) {
	if r == nil {
		return
	}
	r.satChecks.Add(1)
	if !sat {
		r.pruned.Add(1)
	}
}

// Satisfiable decides j through the context's memoized engine (falling back
// to the raw eliminator when no cache is configured, or on the nil
// recorder) and records the decision: one sat-check, one pruned candidate if
// unsatisfiable, and — when the cache is enabled — one hit or miss. This is
// the decision entry point the CQA operators use.
func (r *OpRecorder) Satisfiable(j constraint.Conjunction) bool {
	if r == nil {
		return j.IsSatisfiable()
	}
	sat, hit := r.c.Satisfiable(j)
	r.decided(sat, hit)
	return sat
}

// SatisfiablePair decides a ∧ b — the refine step of join and intersect —
// and returns its canonical form a.Merge(b).Canon() when it is satisfiable
// (the conjunction is meaningless otherwise). With a sat-cache configured
// the pair is looked up under its two input fingerprints first
// (constraint.SatCache.SatisfiablePair), so a remembered pair is neither
// merged nor canonicalised again; without one it is merged, canonicalised
// and decided by the raw eliminator. Either way it records exactly what
// Satisfiable records: one sat-check, one pruned candidate if
// unsatisfiable, one hit or miss when the cache is enabled.
func (r *OpRecorder) SatisfiablePair(a, b constraint.Conjunction) (constraint.Conjunction, bool) {
	if r == nil || r.c.SatCache == nil {
		merged := a.Merge(b).Canon()
		sat := merged.IsSatisfiable()
		if r != nil {
			r.decided(sat, false)
		}
		return merged, sat
	}
	merged, sat, hit := r.c.SatCache.SatisfiablePair(a, b)
	r.decided(sat, hit)
	return merged, sat
}

// decided records one decision routed through the context's oracle: a
// sat-check, a hit or a miss when a cache is configured, and — whenever the
// cache did not answer — one run of the eliminator. Counting the run here,
// on the recorder that asked, is what keeps fm exact under concurrent
// sessions; constraint.DecisionCount is the process total only.
func (r *OpRecorder) decided(sat, hit bool) {
	r.SatCheck(sat)
	if hit {
		r.cacheHits.Add(1)
		return
	}
	r.fm.Add(1)
	if r.c.SatCache != nil {
		r.cacheMisses.Add(1)
	}
}

// SatFunc adapts the recorder to a constraint.SatFunc so decision
// procedures threaded through the constraint package (SubtractAllWith,
// SimplifyWith) both consult the memoized engine and show up in the
// operator's statistics. The nil recorder yields nil (raw Fourier-Motzkin).
func (r *OpRecorder) SatFunc() constraint.SatFunc {
	if r == nil {
		return nil
	}
	return r.Satisfiable
}

// Pairs records a binary operator's filter stage: total is the candidate
// pair space the dense nested loop would enumerate, pruned the pairs the
// filter rejected before any constraint work (partition bucket mismatch
// or disjoint envelopes). Filter-pruned pairs also count as pruned
// candidates — the -stats `pruned` column reads filter rejects plus
// unsatisfiable sat decisions, so with the filter off the same pairs
// surface there through SatCheck instead. Safe from pool workers.
func (r *OpRecorder) Pairs(total, pruned int64) {
	if r == nil {
		return
	}
	r.pairsTotal.Add(total)
	r.pairsPruned.Add(pruned)
	r.pruned.Add(pruned)
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
	r.strategy = strategy
	r.estPairs = estPairs
}

// AddOut records n output tuples.
func (r *OpRecorder) AddOut(n int) {
	if r == nil {
		return
	}
	r.tuplesOut.Add(int64(n))
}

// Done closes the recorder and appends the operator's record to the
// Context. parallel reports whether the worker pool was used. With
// tracing on it also closes the operator's span (counters deposited
// there first), and with a Metrics registry installed it folds the
// record into the per-operator metric families.
func (r *OpRecorder) Done(parallel bool) {
	if r == nil {
		return
	}
	s := OpStats{
		Op:           r.op,
		TuplesIn:     r.tuplesIn,
		TuplesOut:    r.tuplesOut.Load(),
		SatChecks:    r.satChecks.Load(),
		PrunedUnsat:  r.pruned.Load(),
		PairsTotal:   r.pairsTotal.Load(),
		PairsPruned:  r.pairsPruned.Load(),
		CacheHits:    r.cacheHits.Load(),
		CacheMisses:  r.cacheMisses.Load(),
		FMDecisions:  r.fm.Load(),
		EstPairs:     r.estPairs,
		Strategy:     r.strategy,
		EnvHits:      r.envHits.Load(),
		VectorHits:   r.vectorHits.Load(),
		VectorFalls:  r.vectorFalls.Load(),
		FloatRejects: r.floatRejects.Load(),
		Wall:         time.Since(r.start),
		Parallel:     parallel,
	}
	if r.span != nil {
		setNonZero := func(k string, v int64) {
			if v != 0 {
				r.span.Set(k, v)
			}
		}
		setNonZero("in", s.TuplesIn)
		setNonZero("out", s.TuplesOut)
		setNonZero("sat", s.SatChecks)
		setNonZero("pruned", s.PrunedUnsat)
		setNonZero("pairs", s.PairsTotal)
		setNonZero("filtered", s.PairsPruned)
		setNonZero("hit", s.CacheHits)
		setNonZero("miss", s.CacheMisses)
		setNonZero("fm", s.FMDecisions)
		setNonZero("env", s.EnvHits)
		setNonZero("vec", s.VectorHits)
		setNonZero("vec_fallback", s.VectorFalls)
		setNonZero("float_reject", s.FloatRejects)
		if s.Strategy != "" {
			// The planner's view of this operator: chosen strategy,
			// estimated surviving pairs, and what actually survived —
			// est_pairs ≥ act_pairs by the estimator's upper-bound
			// contract, and the gap is the estimation error EXPLAIN
			// ANALYZE exists to expose.
			r.span.SetLabel("strategy", s.Strategy)
			r.span.Set("est_pairs", s.EstPairs)
			r.span.Set("act_pairs", s.PairsTotal-s.PairsPruned)
		}
		if parallel {
			r.span.Set("par", 1)
		}
		r.c.EndSpan(r.span)
	}
	if m := r.c.Metrics; m != nil {
		addOpMetric(m, "cdb_op_tuples_in_total", "Input tuples per operator.", r.op, s.TuplesIn)
		addOpMetric(m, "cdb_op_tuples_out_total", "Output tuples per operator.", r.op, s.TuplesOut)
		addOpMetric(m, "cdb_op_sat_checks_total", "Satisfiability decisions per operator.", r.op, s.SatChecks)
		addOpMetric(m, "cdb_op_pruned_unsat_total", "Candidates pruned as unsatisfiable per operator.", r.op, s.PrunedUnsat)
		addOpMetric(m, "cqa_pairs_considered_total", "Candidate tuple pairs enumerable by the binary CQA operators (the dense pair space).", r.op, s.PairsTotal)
		addOpMetric(m, "cqa_pairs_pruned_total", "Candidate pairs rejected by the filter stage (partition + envelope) before any satisfiability work.", r.op, s.PairsPruned)
		addOpMetric(m, "cdb_op_cache_hits_total", "Sat-cache hits per operator.", r.op, s.CacheHits)
		addOpMetric(m, "cdb_op_cache_misses_total", "Sat-cache misses per operator.", r.op, s.CacheMisses)
		addOpMetric(m, "cdb_envelope_hits_total", "Pair decisions answered on the envelopes of two non-empty boxes (interval intersection).", r.op, s.EnvHits)
		addOpMetric(m, "cdb_vector_hits_total", "Satisfiability decisions answered by the vector fast path (exact polygon clipping).", r.op, s.VectorHits)
		addOpMetric(m, "cdb_vector_fallbacks_total", "Vector fast-path fallbacks to the Fourier-Motzkin refine stage.", r.op, s.VectorFalls)
		addOpMetric(m, "cdb_vector_float_rejects_total", "Vector fast-path pairs rejected by the outward-rounded float bbox filter.", r.op, s.FloatRejects)
		m.HistogramVec("cdb_op_seconds", "Operator wall time.", "op", obs.DefLatencyBuckets).
			With(r.op).Observe(s.Wall.Seconds())
	}
	r.c.mu.Lock()
	r.c.ops = append(r.c.ops, s)
	r.c.mu.Unlock()
}

func addOpMetric(m *obs.Registry, name, help, op string, v int64) {
	if v != 0 {
		m.CounterVec(name, help, "op").With(op).Add(v)
	}
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

// Summary aggregates the collected records per operator name, preserving
// first-appearance order. The Parallel flag is set if any aggregated
// invocation used the pool.
func (c *Context) Summary() []OpStats {
	stats := c.Stats()
	index := map[string]int{}
	var out []OpStats
	for _, s := range stats {
		i, ok := index[s.Op]
		if !ok {
			index[s.Op] = len(out)
			out = append(out, s)
			continue
		}
		out[i].TuplesIn += s.TuplesIn
		out[i].TuplesOut += s.TuplesOut
		out[i].SatChecks += s.SatChecks
		out[i].PrunedUnsat += s.PrunedUnsat
		out[i].PairsTotal += s.PairsTotal
		out[i].PairsPruned += s.PairsPruned
		out[i].CacheHits += s.CacheHits
		out[i].CacheMisses += s.CacheMisses
		out[i].FMDecisions += s.FMDecisions
		out[i].EnvHits += s.EnvHits
		out[i].VectorHits += s.VectorHits
		out[i].VectorFalls += s.VectorFalls
		out[i].FloatRejects += s.FloatRejects
		out[i].EstPairs += s.EstPairs
		if out[i].Strategy != s.Strategy {
			// Same operator ran under different strategies across the
			// aggregated invocations: no single label is truthful.
			out[i].Strategy = "mixed"
		}
		out[i].Wall += s.Wall
		out[i].Parallel = out[i].Parallel || s.Parallel
	}
	return out
}

// FlightRollup converts per-operator records into the flight recorder's
// rollup shape (obs.OpRoll), one entry per operator invocation — plan
// nodes stay separate so the recorder's per-node q-error telemetry sees
// each binary node's est_pairs/act_pairs individually, not a summed
// blur. Pass ctx.Stats() for per-node records or ctx.Summary() for a
// per-operator-name aggregate.
func FlightRollup(ops []OpStats) []obs.OpRoll {
	if len(ops) == 0 {
		return nil
	}
	out := make([]obs.OpRoll, len(ops))
	for i, s := range ops {
		out[i] = obs.OpRoll{
			Op:          s.Op,
			In:          s.TuplesIn,
			Out:         s.TuplesOut,
			Sat:         s.SatChecks,
			Pruned:      s.PrunedUnsat,
			Pairs:       s.PairsTotal,
			PairsPruned: s.PairsPruned,
			CacheHits:   s.CacheHits,
			CacheMisses: s.CacheMisses,
			FM:          s.FMDecisions,
			Env:         s.EnvHits,
			Vec:         s.VectorHits,
			VecFallback: s.VectorFalls,
			FloatRej:    s.FloatRejects,
			Strategy:    s.Strategy,
			WallMS:      float64(s.Wall.Microseconds()) / 1000,
		}
		if s.Strategy != "" {
			out[i].EstPairs = s.EstPairs
			out[i].ActPairs = s.PairsTotal - s.PairsPruned
		}
	}
	return out
}

// FormatStats renders operator records as an aligned table (the -stats
// output of cmd/cqacdb).
func FormatStats(stats []OpStats) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "operator\tin\tout\tpairs\tfiltered\test\tsat-checks\tpruned\tcache-hit\tcache-miss\tfm\tenv\tvec\tvec-fb\tfloat-rej\twall\tmode\tstrategy")
	for _, s := range stats {
		mode := "seq"
		if s.Parallel {
			mode = "par"
		}
		strategy := s.Strategy
		if strategy == "" {
			strategy = "-"
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%s\t%s\n",
			s.Op, s.TuplesIn, s.TuplesOut, s.PairsTotal, s.PairsPruned, s.EstPairs,
			s.SatChecks, s.PrunedUnsat,
			s.CacheHits, s.CacheMisses, s.FMDecisions,
			s.EnvHits, s.VectorHits, s.VectorFalls, s.FloatRejects,
			s.Wall.Round(time.Microsecond), mode, strategy)
	}
	w.Flush()
	return b.String()
}
