package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"cdb/internal/calculus"
	"cdb/internal/db"
	"cdb/internal/exec"
	"cdb/internal/obs"
	"cdb/internal/query"
	"cdb/internal/relation"
)

// queryRequest is the POST /v1/query body. Exactly one of Query and
// Rules must be set: Query is a program in the paper's ASCII query
// language ("R = select ... from ..."), Rules a declarative calculus
// program. Statement results persist on the session, so a later request
// can build on an earlier one exactly like consecutive REPL lines.
type queryRequest struct {
	// Session is the id returned by POST /v1/sessions.
	Session string `json:"session"`

	// Query is a query-language program (one or more statements).
	Query string `json:"query,omitempty"`

	// Rules is a calculus (declarative rules) program.
	Rules string `json:"rules,omitempty"`

	// Target optionally names the session binding for a Rules result.
	// With Query it is a 400: query statements bind their own targets.
	Target string `json:"target,omitempty"`

	// Explain requests the EXPLAIN ANALYZE plan tree as rendered text.
	Explain bool `json:"explain,omitempty"`

	// Trace requests the span tree as structured JSON.
	Trace bool `json:"trace,omitempty"`

	// Stats requests the per-operator execution table.
	Stats bool `json:"stats,omitempty"`

	// Stream switches the response to NDJSON: a header object, one
	// object per result tuple, then a trailer.
	Stream bool `json:"stream,omitempty"`

	// TimeoutMS shortens (never extends) the server's per-query
	// deadline for this request.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// MaxRows truncates the tuples array (0 = all tuples). The trailer
	// count is always the full cardinality.
	MaxRows int `json:"max_rows,omitempty"`
}

// queryResponse is the POST /v1/query body on success (non-streaming): the
// wire shape appendReply writes field by field, and what clients decode.
type queryResponse struct {
	Session   string          `json:"session"`
	QueryID   string          `json:"query_id"`
	Target    string          `json:"target"`
	Schema    string          `json:"schema"`
	Tuples    []string        `json:"tuples"`
	Count     int             `json:"count"`
	Truncated bool            `json:"truncated,omitempty"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Stats     []exec.OpStats  `json:"stats,omitempty"` // the flight record's ops, per operator invocation
	Explain   string          `json:"explain,omitempty"`
	Trace     json.RawMessage `json:"trace,omitempty"`
}

// queryResult is a finished query before encoding: the relation, its rows
// in display order, and the observability artifacts the request asked for.
type queryResult struct {
	target  string
	rel     *relation.Relation
	stats   []exec.OpStats
	explain string
	trace   json.RawMessage

	// How many of rel's tuples the reply lists: all, or the request's
	// max_rows. NormalizeWith made rel, so its tuples are in the order the
	// REPL prints and their renderings are remembered; the encoder writes
	// each line straight from them (relation.AppendRow).
	rows      int
	truncated bool
}

// render cuts the result's rows (normalisation ordered and rendered them)
// to the request's max_rows, under a "render" span of the query's root span
// so EXPLAIN and trace-JSON show the step.
func (res *queryResult) render(ec *exec.Context, maxRows int) {
	sp := ec.BeginSpan("render", "")
	res.rows = res.rel.Len()
	if maxRows > 0 && res.rows > maxRows {
		res.rows, res.truncated = maxRows, true
	}
	sp.Set("rows", int64(res.rows))
	ec.EndSpan(sp)
}

// flightExtras is what the flight recorder needs from an execution that
// the response may not carry: the per-operator records (planner-accuracy
// evidence) and this query's own sat-cache hit rate. Filled even when
// the query fails, so error and timeout records keep their partial
// operator evidence.
type flightExtras struct {
	ops          []exec.OpStats
	cacheHitRate float64
}

// apiError pairs an HTTP status with a client-facing message.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errorStatus(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status
	}
	// A panic inside an operator's work item is the server's fault, not
	// the request's.
	var pe *exec.PanicError
	if errors.As(err, &pe) {
		return http.StatusInternalServerError
	}
	return http.StatusUnprocessableEntity
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Connection", "close")
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	var req queryRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if (req.Query == "") == (req.Rules == "") {
		writeError(w, http.StatusBadRequest, "exactly one of query and rules must be set")
		return
	}
	if req.Target != "" && req.Query != "" {
		writeError(w, http.StatusBadRequest, "target names a rules result; query statements bind their own targets")
		return
	}
	sess, ok := s.session(req.Session)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no such session %q", req.Session))
		return
	}

	// Admission: beyond the max-inflight cap the server sheds load
	// instead of queueing; during a drain it refuses outright.
	release, status := s.acquire()
	if status != 0 {
		if status == http.StatusTooManyRequests {
			s.mRejected.Inc()
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, admissionMessage(status))
		return
	}
	defer release()

	// Flight-recorder identity: every admitted query gets an id, stamped
	// into the response envelope, the logs, the root span, and the
	// in-flight registry.
	qid := obs.NewQueryID()
	src := req.Query
	if src == "" {
		src = req.Rules
	}
	stmt := db.FirstLine(src)

	// Cancellation parent: DELETE /v1/queries/{qid} fires this cancel;
	// the per-request deadline layers on top of it, so both paths stop
	// the query at the same exec.Map per-item checkpoints.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	timeout := s.cfg.queryTimeout()
	if ms := time.Duration(req.TimeoutMS) * time.Millisecond; ms > 0 && (timeout == 0 || ms < timeout) {
		timeout = ms
	}
	runCtx := ctx
	if timeout > 0 {
		var tcancel context.CancelFunc
		runCtx, tcancel = context.WithTimeout(ctx, timeout)
		defer tcancel()
	}

	s.flight.Start(qid, sess.id, stmt, cancel)
	if s.hookQueryStart != nil {
		s.hookQueryStart(runCtx)
	}

	// elapsed is evaluation + normalisation, which orders and renders the
	// result — what elapsed_ms and the flight record's wall_ms mean. The
	// encode and the write come after it and are reported separately as
	// render_ms, so the two add up to the time the request held the server.
	t0 := time.Now()
	s.mQueries.Inc()
	var extras flightExtras
	res, err := s.runOnSession(runCtx, sess, req, qid, stmt, &extras)
	elapsed := time.Since(t0)

	rec := obs.FlightRecord{
		ID: qid, Session: sess.id, Statement: stmt,
		StartUnixMS:  t0.UnixMilli(),
		WallMS:       float64(elapsed.Microseconds()) / 1000,
		Outcome:      obs.OutcomeOf(err),
		CacheHitRate: extras.cacheHitRate,
		Ops:          extras.ops,
	}
	if err != nil {
		s.mErrors.Inc()
		status := errorStatus(err)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.mTimeouts.Inc()
			status = http.StatusGatewayTimeout
			err = fmt.Errorf("query exceeded its deadline after %s: %w", elapsed.Round(time.Millisecond), err)
		case errors.Is(err, context.Canceled):
			status = statusClientClosedRequest
			err = fmt.Errorf("query canceled after %s: %w", elapsed.Round(time.Millisecond), err)
		}
		rec.Error = err.Error()
		s.flight.Finish(rec)
		s.log.Warn("query failed", "query", qid, "session", sess.id, "status", status,
			"elapsed", elapsed, "err", err)
		s.writeQueryError(w, status, err.Error(), qid)
		return
	}
	if req.Stream {
		writeStream(w, sess.id, qid, res, rec.WallMS)
		s.mStreamed.Add(int64(res.rows))
	} else {
		writeReply(w, sess.id, qid, res, rec.WallMS)
	}
	render := time.Since(t0) - elapsed
	rec.Rows = res.rel.Len()
	rec.RenderMS = float64(render.Microseconds()) / 1000
	s.flight.Finish(rec)
	s.log.Info("query ok", "query", qid, "session", sess.id, "target", res.target,
		"tuples", res.rel.Len(), "elapsed", elapsed, "render", render)
}

func admissionMessage(status int) string {
	if status == http.StatusTooManyRequests {
		return "server at max-inflight capacity; retry shortly"
	}
	return "server is shutting down"
}

// runOnSession executes one request's program on the session; stmt, the
// program's first line, is the detail of its root span. Queries on a
// session are serialised (sess.mu), which is what makes the per-query swap
// of the execution context's Ctx and Tracer fields safe; concurrency
// happens across sessions.
func (s *Server) runOnSession(ctx context.Context, sess *session, req queryRequest, qid, stmt string, extras *flightExtras) (*queryResult, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.running.Store(1)
	sess.touch()
	defer func() {
		sess.running.Store(0)
		sess.queries.Add(1)
		sess.touch()
	}()

	ec := sess.ec
	ec.Reset()
	ec.Ctx = ctx
	defer func() { ec.Ctx = nil }()

	// Flight evidence, captured even when the query errors out: the
	// per-invocation records (every binary node keeps its own est/act pair
	// counts), and the sat-cache hit rate over this query's decisions
	// alone, read from those records (the server's cache is shared with
	// every other session).
	defer func() {
		extras.ops = ec.Stats()
		extras.cacheHitRate = obs.CacheHitRate(extras.ops, ec.SatCache != nil)
	}()

	var tracer *obs.Tracer
	if req.Explain || req.Trace {
		tracer = obs.NewTracer()
		tracer.QueryID = qid
		ec.Tracer = tracer
		defer func() { ec.Tracer = nil }()
	}

	var (
		res *queryResult
		err error
	)
	if req.Query != "" {
		res, err = runProgram(sess, req, stmt, ec)
	} else {
		res, err = runRules(sess, req, stmt, ec)
	}
	if err != nil {
		return nil, err
	}
	if req.Stats {
		res.stats = ec.Stats()
	}
	if tracer != nil {
		roots := tracer.Roots()
		if req.Explain {
			res.explain = obs.FormatTree(roots, obs.TreeOptions{Wall: true})
		}
		if req.Trace {
			b, jerr := obs.TraceJSON(roots)
			if jerr != nil {
				return nil, jerr
			}
			res.trace = b
		}
	}
	return res, nil
}

// runProgram executes a query-language program with REPL statement
// semantics (query.Program.Exec): every statement's raw result is bound on the
// session (later requests see it), and the final statement's result is
// normalised for the response exactly as `cqacdb -e` normalises before
// printing.
func runProgram(sess *session, req queryRequest, stmt string, ec *exec.Context) (*queryResult, error) {
	prog, err := query.Parse(req.Query)
	if err != nil {
		return nil, &apiError{http.StatusBadRequest, err.Error()}
	}
	root := ec.BeginSpan("query", stmt)
	defer ec.EndSpan(root)
	target, norm, err := prog.Exec(sess.env, ec, sess.bind)
	if err != nil {
		return nil, err
	}
	res := &queryResult{target: target, rel: norm}
	res.render(ec, req.MaxRows)
	return res, nil
}

// runRules executes a calculus program; like `cqacdb -rules` the result
// is the program's last head normalised (calculus.Program.RunCtx).
// When target is set the result is also bound on the session so query
// statements can build on it.
func runRules(sess *session, req queryRequest, stmt string, ec *exec.Context) (*queryResult, error) {
	target := req.Target
	prog, err := calculus.Parse(req.Rules)
	if err != nil {
		return nil, &apiError{http.StatusBadRequest, err.Error()}
	}
	root := ec.BeginSpan("rules", stmt)
	defer ec.EndSpan(root)
	out, err := prog.RunCtx(sess.env, ec)
	if err != nil {
		return nil, err
	}
	if target != "" {
		sess.bind(target, out)
	}
	res := &queryResult{target: target, rel: out}
	res.render(ec, req.MaxRows)
	return res, nil
}
