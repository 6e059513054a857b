package server

// The flight-recorder HTTP surface: the in-flight query inspector
// (GET /v1/queries, pg_stat_activity-style), cancel-by-id
// (DELETE /v1/queries/{id}), the bounded finished-query history
// (GET /v1/queries/recent, slow-query-log-style) and a human-readable
// rollup of both on /debug/queries. The recorder itself lives in
// internal/obs (obs.Flight); these handlers only render it.

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cdb/internal/exec"
	"cdb/internal/obs"
)

// statusClientClosedRequest is the nginx-convention 499 status for a
// query that ended because it was cancelled — by DELETE /v1/queries/{id}
// or by its client disconnecting — rather than by the deadline (504).
// The error envelope has the same shape either way.
const statusClientClosedRequest = 499

// handleQueriesActive serves GET /v1/queries: every query executing
// right now, with identity, session, statement, elapsed time and the
// pairing strategies its plan has chosen so far.
func (s *Server) handleQueriesActive(w http.ResponseWriter, r *http.Request) {
	active := s.flight.Active()
	if active == nil {
		active = []obs.ActiveQuery{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"queries": active})
}

// handleQueriesRecent serves GET /v1/queries/recent?min_ms=&limit=: the
// history ring newest first, optionally filtered to queries at least
// min_ms of wall time (the slow-query view) and truncated to limit.
func (s *Server) handleQueriesRecent(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var minWall time.Duration
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad min_ms %q", v))
			return
		}
		minWall = time.Duration(ms * float64(time.Millisecond))
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad limit %q", v))
			return
		}
		limit = n
	}
	recent := s.flight.Recent(minWall, limit)
	if recent == nil {
		recent = []obs.FlightRecord{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"queries": recent})
}

// handleQueryCancel serves DELETE /v1/queries/{id}: it fires the
// query's context cancellation — the same path a deadline takes — so the
// query stops at its next per-item checkpoint and finishes with
// outcome "canceled" and HTTP 499.
func (s *Server) handleQueryCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.flight.Cancel(id) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no such query %q", id))
		return
	}
	s.log.Info("query cancel requested", "query", id)
	writeJSON(w, http.StatusOK, map[string]any{"canceled": id})
}

// handleQueriesDebug serves GET /debug/queries: the active registry and
// the recent tail as plain text for a human with curl.
func (s *Server) handleQueriesDebug(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	active := s.flight.Active()
	fmt.Fprintf(&b, "active queries: %d\n", len(active))
	for _, q := range active {
		fmt.Fprintf(&b, "  %-16s %-14s %10.1fms  %s", q.ID, q.Session, q.ElapsedMS, q.Statement)
		if len(q.Strategies) > 0 {
			fmt.Fprintf(&b, "  [%s]", strings.Join(q.Strategies, ","))
		}
		b.WriteByte('\n')
	}
	recent := s.flight.Recent(0, 20)
	fmt.Fprintf(&b, "\nrecent queries (newest first, %d shown of %d retained):\n",
		len(recent), s.flight.Len())
	for _, rec := range recent {
		fmt.Fprintf(&b, "  %-16s %-14s %-8s %10.1fms %7d rows  %s\n",
			rec.ID, rec.Session, rec.Outcome, rec.WallMS, rec.Rows, rec.Statement)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// writeQueryError writes the standard error envelope plus the query's
// flight-recorder id, so a failed query's wire response joins against
// /v1/queries/recent and the query log.
func (s *Server) writeQueryError(w http.ResponseWriter, status int, msg, qid string) {
	writeJSON(w, status, map[string]any{"error": msg, "status": status, "query_id": qid})
}

// strategiesSoFar reads the distinct pairing strategies the session's
// running query has chosen so far, in first-use order — the "strategy so
// far" column of GET /v1/queries. The execution context's stats are
// mutex-guarded, so polling them concurrently with the query is safe.
func strategiesSoFar(ec *exec.Context) []string {
	var out []string
	seen := map[string]bool{}
	for _, op := range ec.Stats() {
		if op.Strategy != "" && !seen[op.Strategy] {
			seen[op.Strategy] = true
			out = append(out, op.Strategy)
		}
	}
	return out
}
