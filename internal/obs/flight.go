package obs

// This file is the query flight recorder: the workload-level half of the
// observability layer. The tracer and the metrics registry answer "what
// did this one query do"; the flight recorder answers the two
// operational questions a resident process gets asked — what is running
// *right now* (the in-flight registry, pg_stat_activity-style), and what
// ran recently and how did it go (a bounded history ring, slow-query-log-
// style, each record carrying its per-operator records).
//
// Like the rest of the package it is stdlib-only and nil-safe: the nil
// *Flight accepts every call as a no-op, so callers record
// unconditionally and pay one pointer test when the recorder is off.
// Recording never changes what a query computes — the recorder only
// observes identifiers, counters and outcomes that execution produced
// anyway.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultFlightCapacity is the history ring's default size (the
// -query-history flag of cqacdbd).
const DefaultFlightCapacity = 512

// Query outcomes recorded per finished query.
const (
	OutcomeOK       = "ok"
	OutcomeError    = "error"
	OutcomeTimeout  = "timeout"
	OutcomeCanceled = "canceled"
)

// OutcomeOf classifies a query's terminal error as a flight-record
// outcome: nil is OutcomeOK, a deadline is OutcomeTimeout, a
// cancellation (client disconnect or DELETE /v1/queries/{id}) is
// OutcomeCanceled, anything else OutcomeError.
func OutcomeOf(err error) string {
	switch {
	case err == nil:
		return OutcomeOK
	case errors.Is(err, context.DeadlineExceeded):
		return OutcomeTimeout
	case errors.Is(err, context.Canceled):
		return OutcomeCanceled
	}
	return OutcomeError
}

// CacheHitRate is a query's sat-cache hit rate read from its own operator
// records: Σ cache_hits ÷ Σ (cache_hits + cache_misses), 0 when no
// decision reached the cache, and −1 when cached is false (no cache
// configured), so that is not read as a true 0 (all misses). The cache
// itself may be shared with other queries; the rows are this query's alone.
func CacheHitRate(ops []OpStats, cached bool) float64 {
	if !cached {
		return -1
	}
	var hits, total int64
	for i := range ops {
		hits += ops[i].CacheHits
		total += ops[i].CacheHits + ops[i].CacheMisses
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

var queryCounter atomic.Int64

// NewQueryID returns a fresh query identity "q<seq>-<8 hex>": the
// process-monotonic sequence keeps ids log-sortable and collision-free
// within a run, the random suffix keeps them unique across restarts (so
// an NDJSON query log appended over several runs never repeats an id).
func NewQueryID() string {
	seq := queryCounter.Add(1)
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// A broken crypto/rand should not stop query execution; the
		// sequence alone is still unique within the process.
		return formatQueryID(seq, nil)
	}
	return formatQueryID(seq, b[:])
}

// formatQueryID renders "q<seq>", then "-<hex of suffix>" when suffix is
// not empty.
func formatQueryID(seq int64, suffix []byte) string {
	var buf [32]byte
	b := strconv.AppendInt(append(buf[:0], 'q'), seq, 10)
	if len(suffix) > 0 {
		b = hex.AppendEncode(append(b, '-'), suffix)
	}
	return string(b)
}

// FlightRecord is one finished query: identity, what ran, how long, how
// much came out, how it ended, and its operator records. It is the unit of
// the history ring, of the /v1/queries/recent response, and of the
// cqacdbd -query-log NDJSON stream (one record per line).
type FlightRecord struct {
	ID          string  `json:"id"`
	Session     string  `json:"session,omitempty"`
	Statement   string  `json:"statement"`
	StartUnixMS int64   `json:"start_unix_ms"`
	WallMS      float64 `json:"wall_ms"` // evaluation + normalisation, which orders and renders the result
	// RenderMS is the result tail that follows WallMS: from the end of
	// normalisation to the last byte handed to the connection (encode,
	// write). Zero — omitted — for queries that failed or whose front end
	// does not measure it.
	RenderMS float64 `json:"render_ms,omitempty"`
	Rows     int     `json:"rows"`
	Outcome  string  `json:"outcome"`
	Error    string  `json:"error,omitempty"`

	// CacheHitRate is the sat-cache hit rate over this query's decisions
	// alone, read from Ops (see the CacheHitRate function). -1 marks "no
	// cache configured", distinguishing it from a true 0 (all misses).
	CacheHitRate float64 `json:"cache_hit_rate"`

	// Ops are the query's operator invocations, one record per plan node
	// in completion order (exec.Context.Stats). A binary node's record
	// carries its strategy and its estimated and actual candidate pairs.
	Ops []OpStats `json:"ops,omitempty"`
}

// ActiveQuery is one in-flight query as reported by Flight.Active (the
// GET /v1/queries wire shape).
type ActiveQuery struct {
	ID          string  `json:"id"`
	Session     string  `json:"session,omitempty"`
	Statement   string  `json:"statement"`
	StartUnixMS int64   `json:"start_unix_ms"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

// activeEntry is the registry's record of a running query.
type activeEntry struct {
	id, session, statement string
	start                  time.Time
	seq                    int64 // registration order, for deterministic listing
	cancel                 context.CancelFunc
}

// Flight is the query flight recorder: a registry of in-flight queries
// (cancellable by id), a fixed-capacity ring of finished-query records,
// and the telemetry sinks those records feed. All methods are safe for
// concurrent use and no-ops on the nil receiver.
//
// The configuration fields must be set before the first query starts and
// not mutated after.
type Flight struct {
	// Metrics, when non-nil, receives per-finished-query families:
	// cdb_query_duration_seconds (by outcome) and cdb_query_rows.
	Metrics *Registry

	// Log, when non-nil, receives every finished query as one NDJSON
	// line (cqacdbd's -query-log flag). Writes are serialised by the
	// recorder's mutex.
	Log io.Writer

	// Logger, when non-nil, receives a warning when a Log write fails.
	Logger *slog.Logger

	// Clock overrides time.Now for deterministic tests.
	Clock func() time.Time

	capacity int

	mu     sync.Mutex
	active map[string]*activeEntry
	seq    int64
	ring   []FlightRecord // fixed-size once full; next points at the eldest
	next   int
}

// NewFlight returns a recorder whose history ring holds capacity
// finished queries (<= 0 means DefaultFlightCapacity).
func NewFlight(capacity int) *Flight {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &Flight{capacity: capacity, active: map[string]*activeEntry{}}
}

func (f *Flight) now() time.Time {
	if f.Clock != nil {
		return f.Clock()
	}
	return time.Now()
}

// Start registers an in-flight query. cancel, when non-nil, is what
// Cancel(id) invokes — the same context cancellation path a deadline
// uses.
func (f *Flight) Start(id, session, statement string, cancel context.CancelFunc) {
	if f == nil || id == "" {
		return
	}
	f.mu.Lock()
	f.seq++
	f.active[id] = &activeEntry{
		id: id, session: session, statement: statement,
		start: f.now(), seq: f.seq, cancel: cancel,
	}
	f.mu.Unlock()
}

// Cancel cancels the in-flight query by id, reporting whether it was
// found. The query itself observes the cancellation at its next
// per-item checkpoint (exec.Map) and finishes with OutcomeCanceled;
// the entry leaves the registry when its Finish record arrives, not
// here, so a cancelled query is still listed until it actually stops.
func (f *Flight) Cancel(id string) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	e, ok := f.active[id]
	f.mu.Unlock()
	if !ok {
		return false
	}
	if e.cancel != nil {
		e.cancel()
	}
	return true
}

// Active snapshots the in-flight queries in start order.
func (f *Flight) Active() []ActiveQuery {
	if f == nil {
		return nil
	}
	now := f.now()
	f.mu.Lock()
	entries := make([]*activeEntry, 0, len(f.active))
	for _, e := range f.active {
		entries = append(entries, e)
	}
	f.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	out := make([]ActiveQuery, len(entries))
	for i, e := range entries {
		out[i] = ActiveQuery{
			ID: e.id, Session: e.session, Statement: e.statement,
			StartUnixMS: e.start.UnixMilli(),
			ElapsedMS:   float64(now.Sub(e.start).Microseconds()) / 1000,
		}
	}
	return out
}

// Finish deregisters the query and records its terminal state: the
// record enters the history ring (evicting the eldest at capacity), and
// the metric families and the NDJSON log are fed. Safe to call for ids
// that never Started.
func (f *Flight) Finish(rec FlightRecord) {
	if f == nil {
		return
	}
	f.observe(rec)

	f.mu.Lock()
	delete(f.active, rec.ID)
	if len(f.ring) < f.capacity {
		f.ring = append(f.ring, rec)
	} else {
		f.ring[f.next] = rec
		f.next = (f.next + 1) % f.capacity
	}
	var logErr error
	if f.Log != nil {
		b, err := json.Marshal(rec)
		if err == nil {
			_, err = f.Log.Write(append(b, '\n'))
		}
		logErr = err
	}
	f.mu.Unlock()

	if logErr != nil && f.Logger != nil {
		f.Logger.Warn("query log write failed", "query", rec.ID, "err", logErr)
	}
}

// observe feeds the metric families for one finished query.
func (f *Flight) observe(rec FlightRecord) {
	if f.Metrics == nil {
		return
	}
	f.Metrics.HistogramVec("cdb_query_duration_seconds",
		"Query wall time in seconds, by outcome.", "outcome", nil).
		With(rec.Outcome).Observe(rec.WallMS / 1000)
	f.Metrics.NewHistogram("cdb_query_rows",
		"Result rows per finished query.", RowBuckets).
		Observe(float64(rec.Rows))
}

// RowBuckets are the cdb_query_rows histogram bounds (result
// cardinalities, decade steps).
var RowBuckets = []float64{0, 1, 10, 100, 1000, 10000, 100000}

// Recent returns up to limit finished queries whose wall time is at
// least minWall, newest first. limit <= 0 means all retained records.
func (f *Flight) Recent(minWall time.Duration, limit int) []FlightRecord {
	if f == nil {
		return nil
	}
	minMS := float64(minWall.Microseconds()) / 1000
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.ring)
	out := make([]FlightRecord, 0, n)
	for i := 0; i < n; i++ {
		// Newest first: walk backwards from the slot before next. While
		// the ring is filling next is 0, so the walk starts at ring[n-1];
		// once full, next points at the eldest and next-1 is the newest.
		rec := f.ring[(f.next-1-i+2*n)%n]
		if rec.WallMS < minMS {
			continue
		}
		out = append(out, rec)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}
