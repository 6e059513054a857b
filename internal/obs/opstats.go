package obs

import (
	"encoding/json"
	"math"
	"strconv"
	"sync/atomic"
	"time"
)

// OpStats is one operator invocation's execution record. It is the one
// record the per-operator surfaces read: the -stats table, the operator
// line of an EXPLAIN tree, the cdb_op_* metric families, the server's
// stats array and a flight record's ops (the last two are the same JSON).
// The execution layer fills it (exec.OpRecorder) and names it exec.OpStats.
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
	EstPairs     int64         // binary operators: the bucket-matched pairs (shared relational attributes match) the filter's frame check reads; exact, an upper bound on ActPairs
	Strategy     string        // always dense where set (binary operators): there is one enumeration, and no surface shows it; kept while the benchmark reads it
	EnvHits      int64         // pair decisions answered on the envelopes: both sides non-empty boxes, merged by interval intersection (no clip, no FM, no Merge+Canon)
	VectorHits   int64         // sat decisions answered by the vector fast path (exact polygon clipping, no FM)
	VectorFalls  int64         // vector-path fallbacks: decisions on polygon forms the clipper could not take (mixed variable pairs, extra variable) and handed to FM
	FloatRejects int64         // always 0, and on no surface: the vector path's float bounding-box filter is gone (the filter stage's float-keyed frame rejects those pairs); kept while the benchmark reads it
	Wall         time.Duration // wall time of the operator
	Parallel     bool          // whether the worker pool was used
}

// OpCounter is one row of the operator-counter table.
type OpCounter struct {
	// Name is the counter's one spelling: its flight-record and stats JSON
	// key, its EXPLAIN span counter, its -stats column, and the <name> of
	// its metric family cdb_op_<name>_total{op}.
	Name  string
	Help  string
	Field func(*OpStats) *int64
}

// OpCounters declares the operator counters once, in display order; every
// view of an OpStats is a loop over it. Adding a counter is one OpStats
// field, one row here and the line that increments it. The first two rows,
// the tuple counts, are printed in JSON even when zero.
var OpCounters = [...]OpCounter{
	{"in", "Input tuples (both sides summed for binary operators).",
		func(s *OpStats) *int64 { return &s.TuplesIn }},
	{"out", "Output tuples.",
		func(s *OpStats) *int64 { return &s.TuplesOut }},
	{"sat", "Satisfiability decisions routed through the sat oracle (sat-cache, then Fourier-Motzkin).",
		func(s *OpStats) *int64 { return &s.SatChecks }},
	{"pruned", "Candidates discarded: filter-stage rejects plus unsatisfiable decisions.",
		func(s *OpStats) *int64 { return &s.PrunedUnsat }},
	{"pairs", "Binary operators: candidate tuple pairs enumerable (the dense pair space).",
		func(s *OpStats) *int64 { return &s.PairsTotal }},
	{"pairs_pruned", "Binary operators: pairs the filter stage (partition + envelope) rejected before any constraint work.",
		func(s *OpStats) *int64 { return &s.PairsPruned }},
	{"cache_hits", "Sat decisions answered by the sat-cache (on join and intersect: a remembered pair, no Merge+Canon).",
		func(s *OpStats) *int64 { return &s.CacheHits }},
	{"cache_misses", "Sat decisions the sat-cache did not answer (cache enabled).",
		func(s *OpStats) *int64 { return &s.CacheMisses }},
	{"fm", "Sat decisions handed to the raw Fourier-Motzkin eliminator.",
		func(s *OpStats) *int64 { return &s.FMDecisions }},
	{"env", "Pair decisions answered on the envelopes of two non-empty boxes (interval intersection).",
		func(s *OpStats) *int64 { return &s.EnvHits }},
	{"vec", "Decisions answered by the vector path (exact polygon clipping).",
		func(s *OpStats) *int64 { return &s.VectorHits }},
	{"vec_fallback", "Decisions on polygon forms the clipper declined and handed to the sat oracle.",
		func(s *OpStats) *int64 { return &s.VectorFalls }},
}

// opMetrics[i] is OpCounters[i]'s metric family name.
var opMetrics = func() (names [len(OpCounters)]string) {
	for i, c := range OpCounters {
		names[i] = "cdb_op_" + c.Name + "_total"
	}
	return names
}()

// ActPairs is what EstPairs bounds: the candidate pairs that survived the
// filter stage.
func (s *OpStats) ActPairs() int64 { return s.PairsTotal - s.PairsPruned }

// filtered reports whether a binary operator's filter stage ran: it bounded
// the pairs, or (a bound of 0) rejected every one of them.
func (s *OpStats) filtered() bool { return s.EstPairs != 0 || s.PairsPruned != 0 }

// Annotate deposits the record on sp, the operator's EXPLAIN line: the
// non-zero counters, and where the filter stage ran the estimated and
// actual surviving pairs.
func (s *OpStats) Annotate(sp *Span) {
	for _, c := range OpCounters {
		if v := *c.Field(s); v != 0 {
			sp.Set(c.Name, v)
		}
	}
	if s.filtered() {
		// est_pairs ≥ act_pairs by the estimator's upper-bound contract;
		// the gap is the estimation error EXPLAIN ANALYZE exists to expose.
		sp.Set("est_pairs", s.EstPairs)
		sp.Set("act_pairs", s.ActPairs())
	}
	if s.Parallel {
		sp.Set("par", 1)
	}
}

// AddTo folds the record into reg: each non-zero counter into
// cdb_op_<name>_total{op}, the wall time into cdb_op_seconds{op}. Operator
// names and counter rows are closed sets, so each (counter, op) series is
// resolved once per registry and the fold is atomic adds. A counter's
// series is still created only when the counter first moves, so an
// exposition lists what has happened and nothing more.
func (s *OpStats) AddTo(reg *Registry) {
	ser := reg.opSeries(s.Op)
	for i := range OpCounters {
		if v := *OpCounters[i].Field(s); v != 0 {
			c := ser.counters[i].Load()
			if c == nil {
				c = reg.CounterVec(opMetrics[i], OpCounters[i].Help, "op").With(s.Op)
				ser.counters[i].Store(c) // racing stores store the same series
			}
			c.Add(v)
		}
	}
	ser.seconds.Observe(s.Wall.Seconds())
}

// opSeries is one operator's cdb_op_* series in one registry: a counter
// slot per OpCounters row, filled on the row's first non-zero fold, and the
// wall-time histogram.
type opSeries struct {
	counters [len(OpCounters)]atomic.Pointer[Counter]
	seconds  *Histogram
}

// opSeries returns op's series in r, resolving them on first use.
func (r *Registry) opSeries(op string) *opSeries {
	if s, ok := r.ops.Load(op); ok {
		return s.(*opSeries)
	}
	s, _ := r.ops.LoadOrStore(op, &opSeries{
		seconds: r.HistogramVec("cdb_op_seconds", "Operator wall time.", "op", DefLatencyBuckets).With(op)})
	return s.(*opSeries)
}

// MarshalJSON encodes the record as the server's stats rows and a flight
// record's ops do: op, the non-zero counters in table order (in and out
// always), est_pairs / act_pairs where the filter stage ran, wall_ms, and
// parallel when the pool ran.
func (s OpStats) MarshalJSON() ([]byte, error) {
	op, err := json.Marshal(s.Op)
	if err != nil {
		return nil, err
	}
	b := append(append(make([]byte, 0, 256), `{"op":`...), op...)
	for i, c := range OpCounters {
		if v := *c.Field(&s); v != 0 || i < 2 {
			b = append(append(append(b, `,"`...), c.Name...), `":`...)
			b = strconv.AppendInt(b, v, 10)
		}
	}
	if s.filtered() {
		b = strconv.AppendInt(append(b, `,"est_pairs":`...), s.EstPairs, 10)
		b = strconv.AppendInt(append(b, `,"act_pairs":`...), s.ActPairs(), 10)
	}
	b = append(b, `,"wall_ms":`...)
	b = strconv.AppendFloat(b, float64(s.Wall.Microseconds())/1000, 'f', -1, 64)
	if s.Parallel {
		b = append(b, `,"parallel":true`...)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON is MarshalJSON's inverse (act_pairs is derived, not read).
func (s *OpStats) UnmarshalJSON(b []byte) error {
	var fixed struct {
		Op       string  `json:"op"`
		EstPairs int64   `json:"est_pairs"`
		WallMS   float64 `json:"wall_ms"`
		Parallel bool    `json:"parallel"`
	}
	var counters map[string]json.RawMessage
	if err := json.Unmarshal(b, &fixed); err != nil {
		return err
	}
	if err := json.Unmarshal(b, &counters); err != nil {
		return err
	}
	*s = OpStats{Op: fixed.Op, EstPairs: fixed.EstPairs,
		Wall: time.Duration(math.Round(fixed.WallMS*1000)) * time.Microsecond, Parallel: fixed.Parallel}
	for _, c := range OpCounters {
		if raw, ok := counters[c.Name]; ok {
			if err := json.Unmarshal(raw, c.Field(s)); err != nil {
				return err
			}
		}
	}
	return nil
}
