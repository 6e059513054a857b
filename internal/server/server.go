// Package server turns the CQA/CDB library into a resident process: a
// stdlib-net/http daemon serving many concurrent sessions against a
// shared registry of in-memory constraint databases.
//
// The shape of the system:
//
//   - a read-only database registry, loaded once at startup and shared
//     by every session (the databases are never mutated after load);
//   - one sat-cache, shared by every session: its entries are facts about
//     their inputs (canonical fingerprints, verified on every hit), so a
//     decision one session paid for answers every other;
//   - sessions (POST /v1/sessions), each owning a private *exec.Context
//     — worker-pool size, per-query tracer and deadline — plus the
//     session-local result bindings a REPL user would accumulate;
//   - a JSON query API (POST /v1/query) executing query-language and
//     calculus programs on a session, with optional NDJSON streaming of
//     result tuples, per-query EXPLAIN ANALYZE text and trace JSON;
//   - admission control: a max-inflight cap sheds load with 429 and a
//     Retry-After header instead of queueing unboundedly;
//   - per-request deadlines threaded as a context.Context into the
//     execution layer, so a timed-out query stops claiming work items
//     mid-batch (see exec.Map) instead of burning workers;
//   - graceful shutdown: draining rejects new queries with 503 while
//     in-flight queries run to completion;
//   - the obs metrics/pprof endpoints mounted on the same listener,
//     with every process-level metric family declared here
//     (installMetrics): the server's (inflight, rejected, request
//     latency, session counts), the sat-cache's and the snapshot store's.
//
// Results are byte-identical to the REPL path: the same statements on a
// session produce the same schema line and the same Sorted()-order
// tuple strings that cqacdb prints (asserted by the equivalence tests).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cdb/internal/constraint"
	"cdb/internal/db"
	"cdb/internal/obs"
	"cdb/internal/snapshot"
)

// Config carries the server's tuning knobs. The zero value is usable:
// every field falls back to the documented default.
type Config struct {
	// MaxInflight caps concurrently executing queries across all
	// sessions; beyond it POST /v1/query sheds load with 429 and a
	// Retry-After header. Zero means DefaultMaxInflight.
	MaxInflight int

	// MaxSessions caps concurrently open sessions; beyond it
	// POST /v1/sessions returns 429. Zero means DefaultMaxSessions.
	MaxSessions int

	// QueryTimeout bounds each query's execution; a request's
	// timeout_ms may shorten (never extend) it. Zero means
	// DefaultQueryTimeout; negative means no server-side deadline.
	QueryTimeout time.Duration

	// SessionIdleTimeout is how long a session may sit idle before the
	// reaper closes it. Zero means DefaultSessionIdleTimeout; negative
	// disables reaping.
	SessionIdleTimeout time.Duration

	// DefaultPar is the worker-pool size for sessions that do not set
	// par (0 = GOMAXPROCS, 1 = sequential).
	DefaultPar int

	// DefaultSatCache is the size, in entries, of the server's one
	// sat-cache (the -sat-cache flag). Zero means
	// constraint.DefaultSatCacheSize; negative disables the cache.
	DefaultSatCache int

	// QueryHistory is the flight recorder's history-ring capacity in
	// finished queries (the -query-history flag). Zero means
	// obs.DefaultFlightCapacity.
	QueryHistory int

	// QueryLog, when non-nil, receives every finished query as one
	// NDJSON flight record (the -query-log flag).
	QueryLog io.Writer

	// Snapshots, when non-nil, enables the /v1/snapshots API and
	// snapshot-bound sessions (the -snapshot-dir flag). The server does
	// not own the store: the embedding process opens and closes it.
	Snapshots *snapshot.Store

	// Logger receives request and lifecycle logs. Nil discards them.
	Logger *slog.Logger
}

// Defaults for the Config fields.
const (
	DefaultMaxInflight        = 64
	DefaultMaxSessions        = 1024
	DefaultQueryTimeout       = 30 * time.Second
	DefaultSessionIdleTimeout = 10 * time.Minute
)

func (c Config) maxInflight() int {
	if c.MaxInflight <= 0 {
		return DefaultMaxInflight
	}
	return c.MaxInflight
}

func (c Config) maxSessions() int {
	if c.MaxSessions <= 0 {
		return DefaultMaxSessions
	}
	return c.MaxSessions
}

func (c Config) queryTimeout() time.Duration {
	switch {
	case c.QueryTimeout < 0:
		return 0 // no deadline
	case c.QueryTimeout == 0:
		return DefaultQueryTimeout
	}
	return c.QueryTimeout
}

func (c Config) idleTimeout() time.Duration {
	switch {
	case c.SessionIdleTimeout < 0:
		return 0 // reaping disabled
	case c.SessionIdleTimeout == 0:
		return DefaultSessionIdleTimeout
	}
	return c.SessionIdleTimeout
}

func (c Config) defaultSatCache() int {
	switch {
	case c.DefaultSatCache < 0:
		return 0 // cache disabled
	case c.DefaultSatCache == 0:
		return constraint.DefaultSatCacheSize
	}
	return c.DefaultSatCache
}

func (c Config) logger() *slog.Logger {
	if c.Logger == nil {
		return slog.New(slog.DiscardHandler)
	}
	return c.Logger
}

// Server is the cqacdbd HTTP server. Create with New, serve its
// Handler(), stop with Shutdown.
type Server struct {
	cfg Config
	log *slog.Logger

	dbs     map[string]*db.Database // read-only after New
	dbOrder []string

	mux    *http.ServeMux
	reg    *obs.Registry
	flight *obs.Flight // query identity, in-flight registry, history ring

	// Admission control state. inflightN counts executing queries;
	// draining flips once and is never unset.
	qmu       sync.Mutex
	inflightN int
	draining  atomic.Bool
	drained   chan struct{} // closed when draining && inflightN == 0
	drainOnce sync.Once

	// Session registry.
	smu      sync.Mutex
	sessions map[string]*session
	seq      atomic.Int64

	// snaps is the optional copy-on-write snapshot store (Config.Snapshots).
	snaps *snapshot.Store

	// cache is the sat-cache every session's decisions go through (nil
	// when Config.DefaultSatCache disables it).
	cache *constraint.SatCache

	done     chan struct{} // closes the idle reaper
	doneOnce sync.Once

	// Metric families.
	mRequests obs.CounterVec
	mLatency  obs.HistogramVec
	mRejected *obs.Counter
	mQueries  *obs.Counter
	mErrors   *obs.Counter
	mTimeouts *obs.Counter
	mOpened   *obs.Counter
	mClosed   *obs.Counter
	mExpired  *obs.Counter
	mStreamed *obs.Counter

	// hookQueryStart, when set (tests only), runs after a query passes
	// admission and before it executes, with the context the query runs
	// under — the seam the 429/drain tests use to hold a query in flight
	// deterministically, and the timeout tests to hold one past its
	// deadline.
	hookQueryStart func(context.Context)

	start time.Time
}

// New builds a Server over the given database registry. The registry is
// shared and read-only: the server never mutates a database, and every
// session layers its results over it. Registration order in routes and
// listings is by sorted name.
func New(dbs map[string]*db.Database, cfg Config) *Server {
	names := make([]string, 0, len(dbs))
	for name := range dbs {
		names = append(names, name)
	}
	sort.Strings(names)
	s := &Server{
		cfg:      cfg,
		log:      cfg.logger(),
		dbs:      dbs,
		dbOrder:  names,
		mux:      http.NewServeMux(),
		reg:      obs.NewRegistry(),
		drained:  make(chan struct{}),
		sessions: map[string]*session{},
		snaps:    cfg.Snapshots,
		done:     make(chan struct{}),
		start:    time.Now(),
	}
	if n := cfg.defaultSatCache(); n > 0 {
		s.cache = constraint.NewSatCache(n)
	}
	s.flight = obs.NewFlight(cfg.QueryHistory)
	s.flight.Metrics = s.reg
	s.flight.Log = cfg.QueryLog
	s.flight.Logger = s.log
	s.installMetrics()
	s.routes()
	go s.reapLoop()
	return s
}

// Handler returns the server's root handler: the /v1 API, /healthz, and
// the obs endpoints (/metrics, /debug/vars, /debug/pprof/...), all on
// one mux.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.handle("GET /healthz", s.handleHealth)
	s.handle("GET /v1/dbs", s.handleDBs)
	s.handle("POST /v1/sessions", s.handleSessionCreate)
	s.handle("GET /v1/sessions", s.handleSessionList)
	s.handle("GET /v1/sessions/{id}", s.handleSessionGet)
	s.handle("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.handle("POST /v1/query", s.handleQuery)
	s.handle("GET /v1/queries", s.handleQueriesActive)
	s.handle("GET /v1/queries/recent", s.handleQueriesRecent)
	s.handle("DELETE /v1/queries/{id}", s.handleQueryCancel)
	s.snapshotRoutes()
	obs.Mount(s.mux, s.reg)
}

// handle registers pattern with per-route request count and latency
// metrics, labelled by the route pattern (not the raw URL, which would
// explode the label space).
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	counter := s.mRequests.With(pattern)
	hist := s.mLatency.With(pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		counter.Inc()
		t0 := time.Now()
		h(w, r)
		hist.Observe(time.Since(t0).Seconds())
	})
}

func (s *Server) installMetrics() {
	r := s.reg
	s.mRequests = r.CounterVec("cqacdbd_requests_total",
		"HTTP requests served, by route pattern.", "path")
	s.mLatency = r.HistogramVec("cqacdbd_request_seconds",
		"HTTP request latency in seconds, by route pattern.", "path", nil)
	s.mRejected = r.NewCounter("cqacdbd_rejected_total",
		"Queries shed with 429 at the max-inflight cap.")
	s.mQueries = r.NewCounter("cqacdbd_queries_total",
		"Queries executed (successful or not).")
	s.mErrors = r.NewCounter("cqacdbd_query_errors_total",
		"Queries that returned an error (parse, eval, or timeout).")
	s.mTimeouts = r.NewCounter("cqacdbd_query_timeouts_total",
		"Queries cancelled by the per-request deadline.")
	s.mOpened = r.NewCounter("cqacdbd_sessions_opened_total",
		"Sessions created.")
	s.mClosed = r.NewCounter("cqacdbd_sessions_closed_total",
		"Sessions closed by the client.")
	s.mExpired = r.NewCounter("cqacdbd_sessions_expired_total",
		"Sessions reaped by the idle timeout.")
	s.mStreamed = r.NewCounter("cqacdbd_streamed_tuples_total",
		"Result tuples written over NDJSON streams.")
	r.NewGaugeFunc("cqacdbd_inflight_queries",
		"Queries currently executing.", func() int64 {
			s.qmu.Lock()
			defer s.qmu.Unlock()
			return int64(s.inflightN)
		})
	r.NewGaugeFunc("cqacdbd_sessions_active",
		"Sessions currently open.", func() int64 {
			s.smu.Lock()
			defer s.smu.Unlock()
			return int64(len(s.sessions))
		})
	// Info-style build gauge: the fact lives in the label, the value is
	// always 1 (the Prometheus *_info convention), so dashboards can
	// join any series against the running toolchain version.
	r.GaugeVec("cdb_build_info",
		"Build/runtime info; the value is always 1.", "go_version").
		With(runtime.Version()).Set(1)
	r.NewGaugeFunc("cdb_process_start_time_seconds",
		"Unix time the server process started.", func() int64 {
			return s.start.Unix()
		})
	r.NewCounterFunc("cdb_fm_decisions_total",
		"Raw Fourier-Motzkin satisfiability decisions (process-wide).",
		constraint.DecisionCount)

	// The sat-cache's and the snapshot store's families are scrape-time
	// reads of the Stats() each keeps: emitting costs the hot path nothing.
	if c := s.cache; c != nil {
		r.NewCounterFunc("cdb_satcache_hits_total", "Satisfiability decisions answered by the memoized engine.",
			func() int64 { return c.Stats().Hits })
		r.NewCounterFunc("cdb_satcache_misses_total", "Satisfiability decisions that ran the raw eliminator (cache enabled).",
			func() int64 { return c.Stats().Misses })
		r.NewCounterFunc("cdb_satcache_evictions_total", "LRU evictions from the sat-cache.",
			func() int64 { return c.Stats().Evictions })
		r.NewCounterFunc("cdb_satcache_collisions_total", "Fingerprint collisions detected (and corrected) by the exactness guard.",
			func() int64 { return c.Stats().Collisions })
		r.NewGaugeFunc("cdb_satcache_entries", "Resident sat-cache entries across all shards.",
			func() int64 { return int64(c.Stats().Entries) })
	}
	st := s.snaps
	if st == nil {
		return
	}
	// Pages written against pages shared say whether copy-on-write shares;
	// encoded against reused, and decoded against shared, which side of a
	// stored form a commit and a materialise took.
	r.NewCounterFunc("cdb_snapshot_commits_total", "Snapshot commits (durable WAL commit records written).",
		func() int64 { return st.Stats().Commits })
	r.NewCounterFunc("cdb_snapshot_forks_total", "Snapshot forks (manifest copies; no page I/O).",
		func() int64 { return st.Stats().Forks })
	r.NewCounterFunc("cdb_snapshot_releases_total", "Snapshots released (pages reclaimed by refcount).",
		func() int64 { return st.Stats().Releases })
	r.NewCounterFunc("cdb_snapshot_pages_written_total", "Content pages physically written by commits.",
		func() int64 { return st.Stats().PagesWritten })
	r.NewCounterFunc("cdb_snapshot_pages_shared_total", "Page references resolved by content dedup instead of a write.",
		func() int64 { return st.Stats().PagesShared })
	r.NewCounterFunc("cdb_snapshot_pages_reused_total", "Written pages that recycled a freed slot instead of growing the file.",
		func() int64 { return st.Stats().PagesReused })
	r.NewCounterFunc("cdb_snapshot_relations_encoded_total", "Relations a commit ordered, encoded, chunked and hashed.",
		func() int64 { return st.Stats().RelationsEncoded })
	r.NewCounterFunc("cdb_snapshot_relations_reused_total",
		"Relations a commit took the stored form of from the relation itself (no encoding; pages still compared and written).",
		func() int64 { return st.Stats().RelationsReused })
	r.NewCounterFunc("cdb_snapshot_relations_decoded_total", "Relations a materialise decoded from their pages.",
		func() int64 { return st.Stats().RelationsDecoded })
	r.NewCounterFunc("cdb_snapshot_relations_shared_total",
		"Relations a materialise shared with a database still in memory (no decoding; pages still read and verified).",
		func() int64 { return st.Stats().RelationsShared })
	r.NewCounterFunc("cdb_wal_appends_total", "WAL records appended.",
		func() int64 { return st.Stats().WALAppends })
	r.NewCounterFunc("cdb_wal_fsyncs_total", "WAL fsync batches (one per commit, fork or release).",
		func() int64 { return st.Stats().WALFlushes })
	r.NewCounterFunc("cdb_wal_bytes_total", "Bytes durably appended to the WAL.",
		func() int64 { return st.Stats().WALBytes })
	r.NewGaugeFunc("cdb_snapshots_live", "Snapshots currently live in the store.",
		func() int64 { return int64(st.Stats().Snapshots) })
	r.NewGaugeFunc("cdb_snapshot_pages_live", "Distinct pages referenced by at least one live snapshot.",
		func() int64 { return int64(st.Stats().PagesLive) })
	r.NewGaugeFunc("cdb_snapshot_pages_free", "Allocated pages on the free list, awaiting reuse.",
		func() int64 { return int64(st.Stats().PagesFree) })
}

// --- admission control ---

// acquire claims an inflight slot. It returns a release func on
// success, or the HTTP status to shed with (503 draining, 429 at the
// cap).
func (s *Server) acquire() (release func(), status int) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.draining.Load() {
		return nil, http.StatusServiceUnavailable
	}
	if s.inflightN >= s.cfg.maxInflight() {
		return nil, http.StatusTooManyRequests
	}
	s.inflightN++
	var once sync.Once
	return func() {
		once.Do(func() {
			s.qmu.Lock()
			s.inflightN--
			if s.draining.Load() && s.inflightN == 0 {
				s.drainOnce.Do(func() { close(s.drained) })
			}
			s.qmu.Unlock()
		})
	}, 0
}

// Shutdown drains the server: new queries are rejected with 503 while
// queries already admitted run to completion; it returns once the last
// one finishes (or ctx expires, typically the -shutdown-grace bound, in
// which case the remaining queries' deadlines still bound them). After
// Shutdown every session is closed and the idle reaper is stopped.
func (s *Server) Shutdown(ctx context.Context) error {
	s.doneOnce.Do(func() { close(s.done) })
	s.qmu.Lock()
	s.draining.Store(true)
	if s.inflightN == 0 {
		s.drainOnce.Do(func() { close(s.drained) })
	}
	s.qmu.Unlock()
	var err error
	select {
	case <-s.drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.smu.Lock()
	clear(s.sessions)
	s.smu.Unlock()
	return err
}

// --- session registry ---

var errSessionLimit = fmt.Errorf("session limit reached")

func (s *Server) addSession(dbName string, base *db.Database, opts sessionOptions) (*session, error) {
	s.smu.Lock()
	defer s.smu.Unlock()
	if len(s.sessions) >= s.cfg.maxSessions() {
		return nil, errSessionLimit
	}
	sess := newSession(newSessionID(s.seq.Add(1)), dbName, base, opts, s.cfg, s.cache, s.reg)
	s.sessions[sess.id] = sess
	s.mOpened.Inc()
	return sess, nil
}

func (s *Server) session(id string) (*session, bool) {
	s.smu.Lock()
	defer s.smu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// removeSession drops id from the registry. It reports whether the
// session existed.
func (s *Server) removeSession(id string) bool {
	s.smu.Lock()
	defer s.smu.Unlock()
	if _, ok := s.sessions[id]; !ok {
		return false
	}
	delete(s.sessions, id)
	return true
}

// reapLoop closes sessions idle past the configured timeout. Sessions
// with a query in flight are never reaped (the query serialisation
// mutex plus the running counter make this exact, not best-effort).
func (s *Server) reapLoop() {
	idle := s.cfg.idleTimeout()
	if idle <= 0 {
		return
	}
	tick := idle / 4
	if tick > 30*time.Second {
		tick = 30 * time.Second
	}
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case now := <-t.C:
			s.reapIdle(now, idle)
		}
	}
}

func (s *Server) reapIdle(now time.Time, idle time.Duration) {
	s.smu.Lock()
	defer s.smu.Unlock()
	for id, sess := range s.sessions {
		if sess.running.Load() > 0 || sess.idleFor(now) < idle {
			continue
		}
		delete(s.sessions, id)
		s.mExpired.Inc()
		s.log.Info("session expired", "session", id, "db", sess.dbName,
			"queries", sess.queries.Load())
	}
}

// --- small handlers ---

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        statusFor(s.draining.Load()),
		"uptime_ms":     time.Since(s.start).Milliseconds(),
		"start_unix_ms": s.start.UnixMilli(),
		"go_version":    runtime.Version(),
	})
}

func statusFor(draining bool) string {
	if draining {
		return "draining"
	}
	return "ok"
}

type relationInfo struct {
	Name   string `json:"name"`
	Schema string `json:"schema"`
	Tuples int    `json:"tuples"`
}

type dbInfo struct {
	Name      string         `json:"name"`
	Relations []relationInfo `json:"relations"`
	Tuples    int            `json:"tuples"`
}

func (s *Server) handleDBs(w http.ResponseWriter, r *http.Request) {
	out := make([]dbInfo, 0, len(s.dbOrder))
	for _, name := range s.dbOrder {
		d := s.dbs[name]
		info := dbInfo{Name: name, Tuples: d.TupleCount(), Relations: []relationInfo{}}
		for _, rel := range d.Names() {
			rr, _ := d.Get(rel)
			info.Relations = append(info.Relations, relationInfo{
				Name: rel, Schema: rr.Schema().String(), Tuples: rr.Len()})
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"databases": out})
}

type sessionInfo struct {
	ID        string   `json:"id"`
	DB        string   `json:"db"`
	Snapshot  string   `json:"snapshot,omitempty"` // snapshot the session is bound to
	Workers   int      `json:"workers"`
	Queries   int64    `json:"queries"`
	Results   []string `json:"results,omitempty"`
	CreatedMS int64    `json:"created_unix_ms"`
	IdleMS    int64    `json:"idle_ms"`
}

func (s *Server) sessionInfo(sess *session) sessionInfo {
	sess.mu.Lock()
	results := append([]string{}, sess.order...)
	sess.mu.Unlock()
	return sessionInfo{
		ID:        sess.id,
		DB:        sess.dbName,
		Snapshot:  sess.snapID,
		Workers:   sess.ec.Workers(),
		Queries:   sess.queries.Load(),
		Results:   results,
		CreatedMS: sess.created.UnixMilli(),
		IdleMS:    sess.idleFor(time.Now()).Milliseconds(),
	}
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	var opts sessionOptions
	// An absent or empty body means "all defaults".
	if err := decodeJSON(w, r, &opts); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var (
		dbName string
		base   *db.Database
	)
	switch {
	case opts.Snapshot != "":
		// Bind the session to a materialized snapshot instead of a
		// registry database. Sessions bound to one snapshot share its
		// tuples and filter memos through the store's stored forms
		// (snapshot.Store.MaterializeCtx).
		if opts.DB != "" {
			writeError(w, http.StatusBadRequest, "db and snapshot are mutually exclusive")
			return
		}
		if s.snaps == nil {
			writeError(w, http.StatusNotImplemented,
				"snapshot store not configured (start the server with -snapshot-dir)")
			return
		}
		meta, ok := s.snaps.Get(opts.Snapshot)
		if !ok {
			writeError(w, http.StatusNotFound,
				fmt.Sprintf("unknown snapshot %q (store holds %s)", opts.Snapshot, quoteNames(s.snapshotNames())))
			return
		}
		var err error
		base, err = s.snaps.MaterializeCtx(meta.ID, nil)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		dbName = meta.DB
	default:
		dbName = opts.DB
		if dbName == "" {
			if len(s.dbOrder) == 1 {
				dbName = s.dbOrder[0]
			} else {
				writeError(w, http.StatusBadRequest,
					fmt.Sprintf("db is required (registry holds %s)", quoteNames(s.dbOrder)))
				return
			}
		}
		var ok bool
		base, ok = s.dbs[dbName]
		if !ok {
			writeError(w, http.StatusNotFound,
				fmt.Sprintf("unknown database %q (registry holds %s)", dbName, quoteNames(s.dbOrder)))
			return
		}
	}
	sess, err := s.addSession(dbName, base, opts)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	s.log.Info("session opened", "session", sess.id, "db", dbName,
		"snapshot", opts.Snapshot)
	writeJSON(w, http.StatusCreated, s.sessionInfo(sess))
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	s.smu.Lock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	s.smu.Unlock()
	sort.Strings(ids)
	out := make([]sessionInfo, 0, len(ids))
	for _, id := range ids {
		if sess, ok := s.session(id); ok {
			out = append(out, s.sessionInfo(sess))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	writeJSON(w, http.StatusOK, s.sessionInfo(sess))
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.removeSession(id) {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	s.mClosed.Inc()
	s.log.Info("session closed", "session", id)
	writeJSON(w, http.StatusOK, map[string]any{"closed": id})
}

// --- JSON plumbing ---

// maxBodyBytes bounds request bodies; query programs are text, a
// megabyte is generous.
const maxBodyBytes = 1 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg, "status": status})
}

// quoteNames renders the registry names for error messages.
func quoteNames(names []string) string {
	if len(names) == 0 {
		return "no databases"
	}
	quoted := make([]string, len(names))
	for i, n := range names {
		quoted[i] = strconv.Quote(n)
	}
	return strings.Join(quoted, ", ")
}
