package server

// Tests for the query flight recorder's HTTP surface: per-query
// identity in the envelope, the in-flight inspector, cancel-by-id, the
// bounded history ring, and the per-node planner evidence in its records.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"cdb/internal/datagen"
	"cdb/internal/db"
	"cdb/internal/obs"
	"cdb/internal/relation"
)

var testQueryIDRe = regexp.MustCompile(`^q[0-9]+-[0-9a-f]{8}$`)

// recentRecords fetches and decodes GET /v1/queries/recent.
func recentRecords(t *testing.T, url string) []obs.FlightRecord {
	t.Helper()
	status, body := getJSON(t, url)
	if status != http.StatusOK {
		t.Fatalf("queries/recent: %d %s", status, body)
	}
	var out struct {
		Queries []obs.FlightRecord `json:"queries"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("queries/recent decode: %v\n%s", err, body)
	}
	return out.Queries
}

func activeQueries(t *testing.T, url string) []obs.ActiveQuery {
	t.Helper()
	status, body := getJSON(t, url)
	if status != http.StatusOK {
		t.Fatalf("queries: %d %s", status, body)
	}
	var out struct {
		Queries []obs.ActiveQuery `json:"queries"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("queries decode: %v\n%s", err, body)
	}
	return out.Queries
}

func httpDelete(t *testing.T, url string) (int, []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func TestQueryIDInEnvelopeAndHistory(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	id := openSession(t, ts, `{"par": 1}`)
	status, resp, body := runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "R = select x >= 1 from Land"}`, id))
	if status != http.StatusOK {
		t.Fatalf("query: %d %s", status, body)
	}
	if !testQueryIDRe.MatchString(resp.QueryID) {
		t.Fatalf("response query_id %q does not match %v", resp.QueryID, testQueryIDRe)
	}

	recent := recentRecords(t, ts.URL+"/v1/queries/recent")
	if len(recent) != 1 {
		t.Fatalf("history has %d records, want 1: %+v", len(recent), recent)
	}
	rec := recent[0]
	if rec.ID != resp.QueryID {
		t.Fatalf("history id %q != envelope query_id %q", rec.ID, resp.QueryID)
	}
	if rec.Session != id || rec.Outcome != obs.OutcomeOK {
		t.Fatalf("record session/outcome: %+v", rec)
	}
	if rec.Rows != resp.Count {
		t.Fatalf("record rows %d != response count %d", rec.Rows, resp.Count)
	}
	if rec.Statement != "R = select x >= 1 from Land" {
		t.Fatalf("record statement %q", rec.Statement)
	}
	if rec.StartUnixMS == 0 || rec.WallMS < 0 {
		t.Fatalf("record timing: %+v", rec)
	}
	// Default sessions have a sat-cache, so the per-query hit rate is a
	// real rate, not the no-cache sentinel.
	if rec.CacheHitRate < 0 || rec.CacheHitRate > 1 {
		t.Fatalf("cache hit rate %v, want [0,1]", rec.CacheHitRate)
	}
	if len(rec.Ops) == 0 {
		t.Fatalf("record has no operator rollups: %+v", rec)
	}
}

func TestInflightListingAndCancelByID(t *testing.T) {
	// No sat-cache: the slow self-join must stay slow enough to time out.
	s, ts := newTestServer(t, Config{DefaultSatCache: -1}, map[string]*db.Database{"slow": slowDB()})
	id := openSession(t, ts, `{"db": "hurricane", "par": 1}`)
	started := make(chan struct{})
	release := make(chan struct{})
	s.hookQueryStart = func(context.Context) {
		started <- struct{}{}
		<-release
	}

	done := make(chan []byte, 1)
	go func() {
		_, body, _ := postJSON(t, ts.URL+"/v1/query", fmt.Sprintf(
			`{"session": %q, "query": "R = select x >= 1 from Land"}`, id))
		done <- body
	}()
	<-started // the query is admitted and registered, held pre-execution

	active := activeQueries(t, ts.URL+"/v1/queries")
	if len(active) != 1 {
		t.Fatalf("active listing has %d entries, want 1: %+v", len(active), active)
	}
	aq := active[0]
	if !testQueryIDRe.MatchString(aq.ID) || aq.Session != id {
		t.Fatalf("active entry: %+v", aq)
	}
	if aq.Statement != "R = select x >= 1 from Land" {
		t.Fatalf("active statement %q", aq.Statement)
	}
	if aq.StartUnixMS == 0 || aq.ElapsedMS < 0 {
		t.Fatalf("active timing: %+v", aq)
	}

	// Cancelling an unknown id is a 404; the live one acknowledges.
	if status, _ := httpDelete(t, ts.URL+"/v1/queries/q0-00000000"); status != http.StatusNotFound {
		t.Fatalf("cancel unknown: %d, want 404", status)
	}
	status, body := httpDelete(t, ts.URL+"/v1/queries/"+aq.ID)
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"canceled"`)) {
		t.Fatalf("cancel: %d %s", status, body)
	}
	// Cancelled but still running: the entry stays listed until it stops.
	if got := activeQueries(t, ts.URL+"/v1/queries"); len(got) != 1 {
		t.Fatalf("cancelled query left the listing early: %+v", got)
	}

	close(release)
	errBody := <-done
	var errEnv map[string]any
	if err := json.Unmarshal(errBody, &errEnv); err != nil {
		t.Fatalf("error envelope: %v\n%s", err, errBody)
	}
	if errEnv["status"] != float64(statusClientClosedRequest) {
		t.Fatalf("cancelled query status %v, want %d:\n%s", errEnv["status"], statusClientClosedRequest, errBody)
	}
	if msg, _ := errEnv["error"].(string); !strings.Contains(msg, "canceled") {
		t.Fatalf("cancelled query error %q", msg)
	}
	if errEnv["query_id"] != aq.ID {
		t.Fatalf("error envelope query_id %v, want %q", errEnv["query_id"], aq.ID)
	}

	// The registry is empty again and the history records the outcome.
	if got := activeQueries(t, ts.URL+"/v1/queries"); len(got) != 0 {
		t.Fatalf("registry not drained: %+v", got)
	}
	recent := recentRecords(t, ts.URL+"/v1/queries/recent")
	if len(recent) != 1 || recent[0].Outcome != obs.OutcomeCanceled || recent[0].ID != aq.ID {
		t.Fatalf("cancelled record: %+v", recent)
	}

	// A cancel has the same wire shape as a deadline timeout: the same
	// envelope keys, only status and message differ.
	s.hookQueryStart = holdPastDeadline
	slowID := openSession(t, ts, `{"db": "slow", "par": 2}`)
	status, _, timeoutBody := runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "R = join B and B", "timeout_ms": 5}`, slowID))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("timeout query: %d %s", status, timeoutBody)
	}
	var timeoutEnv map[string]any
	if err := json.Unmarshal(timeoutBody, &timeoutEnv); err != nil {
		t.Fatalf("timeout envelope: %v\n%s", err, timeoutBody)
	}
	if fmt.Sprint(envelopeKeys(timeoutEnv)) != fmt.Sprint(envelopeKeys(errEnv)) {
		t.Fatalf("cancel envelope keys %v != timeout envelope keys %v",
			envelopeKeys(errEnv), envelopeKeys(timeoutEnv))
	}
	// Both terminal paths are in the history with their outcomes.
	outcomes := map[string]bool{}
	for _, rec := range recentRecords(t, ts.URL+"/v1/queries/recent") {
		outcomes[rec.Outcome] = true
	}
	if !outcomes[obs.OutcomeCanceled] || !outcomes[obs.OutcomeTimeout] {
		t.Fatalf("history outcomes %v, want canceled and timeout", outcomes)
	}
}

func envelopeKeys(env map[string]any) []string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestQueryHistoryRingEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{QueryHistory: 2}, nil)
	id := openSession(t, ts, `{"par": 1}`)
	for i := 1; i <= 3; i++ {
		status, _, body := runQueryReq(t, ts, fmt.Sprintf(
			`{"session": %q, "query": "R%d = select x >= %d from Land"}`, id, i, i))
		if status != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, status, body)
		}
	}
	recent := recentRecords(t, ts.URL+"/v1/queries/recent")
	if len(recent) != 2 {
		t.Fatalf("ring holds %d records, want capacity 2: %+v", len(recent), recent)
	}
	// Newest first; the first query was evicted.
	if recent[0].Statement != "R3 = select x >= 3 from Land" ||
		recent[1].Statement != "R2 = select x >= 2 from Land" {
		t.Fatalf("ring contents: %q, %q", recent[0].Statement, recent[1].Statement)
	}
	// The limit parameter truncates, newest first.
	limited := recentRecords(t, ts.URL+"/v1/queries/recent?limit=1")
	if len(limited) != 1 || limited[0].Statement != recent[0].Statement {
		t.Fatalf("limit=1: %+v", limited)
	}
	// Bad parameters are rejected.
	if status, _ := getJSON(t, ts.URL+"/v1/queries/recent?min_ms=nope"); status != http.StatusBadRequest {
		t.Fatalf("bad min_ms: %d, want 400", status)
	}
	if status, _ := getJSON(t, ts.URL+"/v1/queries/recent?limit=-1"); status != http.StatusBadRequest {
		t.Fatalf("bad limit: %d, want 400", status)
	}
}

// boxesDB builds a database whose self-join the planner over-estimates:
// the single-attribute overlap estimate counts pairs that the filter then
// prunes on the other attributes, so est_pairs > act_pairs.
func boxesDB() *db.Database {
	d := db.New()
	d.Put("B", datagen.Canonical(datagen.BoxRelation(datagen.Scaled(4), 24, 4)))
	return d
}

// TestPlannerQErrorTelemetry: a binary node's flight record carries the
// planner's evidence — its strategy, estimated and actual candidate pairs
// and the decider that answered them — so /v1/queries/recent answers "was
// the planner right" per node.
func TestPlannerQErrorTelemetry(t *testing.T) {
	_, ts := newTestServer(t, Config{}, map[string]*db.Database{"boxes": boxesDB()})
	id := openSession(t, ts, `{"db": "boxes", "par": 1}`)
	status, _, body := runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "R = join B and B"}`, id))
	if status != http.StatusOK {
		t.Fatalf("join: %d %s", status, body)
	}

	recent := recentRecords(t, ts.URL+"/v1/queries/recent")
	if len(recent) != 1 {
		t.Fatalf("history: %+v", recent)
	}
	var join *obs.OpStats
	for i := range recent[0].Ops {
		if recent[0].Ops[i].Strategy != "" {
			join = &recent[0].Ops[i]
		}
	}
	if join == nil {
		t.Fatalf("no binary node in the record: %+v", recent[0].Ops)
	}
	if join.ActPairs() <= 0 || join.EstPairs <= join.ActPairs() {
		t.Fatalf("pair counts est=%d act=%d, want est > act > 0 on this workload", join.EstPairs, join.ActPairs())
	}
	// Both sides are boxes over the shared x and y, so auto decides every
	// candidate on the envelopes — and the record says so, with the env
	// counter beside the enumeration's label.
	if join.Strategy != "dense" || join.EnvHits != join.ActPairs() || join.VectorHits != 0 || join.SatChecks != 0 {
		t.Fatalf("record hides the envelope decider: %+v", *join)
	}

	status, metrics := getJSON(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	text := string(metrics)
	if !strings.Contains(text, `cdb_query_duration_seconds_count{outcome="ok"} 1`) {
		t.Fatalf("duration histogram missing:\n%s", grepLines(text, "duration"))
	}
	// The session's operators fold into the daemon's registry: /metrics
	// carries the record's own counters.
	if want := fmt.Sprintf(`cdb_op_env_total{op="join"} %d`, join.EnvHits); !strings.Contains(text, want) {
		t.Fatalf("metrics missing %s:\n%s", want, grepLines(text, "cdb_op_"))
	}
}

// TestStatsAreFlightOps: a query's stats array and its flight record's ops
// are one list in one encoding.
func TestStatsAreFlightOps(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	id := openSession(t, ts, `{"par": 1}`)
	status, body, _ := postJSON(t, ts.URL+"/v1/query", fmt.Sprintf(
		`{"session": %q, "query": "R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from R0", "stats": true}`, id))
	if status != http.StatusOK {
		t.Fatalf("query: %d %s", status, body)
	}
	var resp struct {
		Stats json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	status, recent := getJSON(t, ts.URL+"/v1/queries/recent")
	if status != http.StatusOK {
		t.Fatalf("queries/recent: %d %s", status, recent)
	}
	var hist struct {
		Queries []struct {
			Ops json.RawMessage `json:"ops"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(recent, &hist); err != nil || len(hist.Queries) != 1 {
		t.Fatalf("queries/recent: %v %s", err, recent)
	}
	var stats, ops bytes.Buffer
	if err := json.Compact(&stats, resp.Stats); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&ops, hist.Queries[0].Ops); err != nil {
		t.Fatal(err)
	}
	if stats.Len() == 0 || stats.String() != ops.String() {
		t.Errorf("stats\n%s\n!= flight ops\n%s", stats.String(), ops.String())
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

func TestDebugQueriesText(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	id := openSession(t, ts, `{"par": 1}`)
	if status, _, body := runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "R = select x >= 1 from Land"}`, id)); status != http.StatusOK {
		t.Fatalf("query: %d %s", status, body)
	}
	status, body := getJSON(t, ts.URL+"/debug/queries")
	if status != http.StatusOK {
		t.Fatalf("debug/queries: %d", status)
	}
	text := string(body)
	for _, want := range []string{"active queries: 0", "recent queries", "R = select x >= 1 from Land", "ok"} {
		if !strings.Contains(text, want) {
			t.Fatalf("debug text missing %q:\n%s", want, text)
		}
	}
}

func TestBuildInfoAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	status, body := getJSON(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	text := string(body)
	if !regexp.MustCompile(`cdb_build_info\{go_version="go[0-9.]+"\} 1`).MatchString(text) {
		t.Fatalf("metrics missing cdb_build_info:\n%s", grepLines(text, "build_info"))
	}
	if !strings.Contains(text, "cdb_process_start_time_seconds") {
		t.Fatal("metrics missing cdb_process_start_time_seconds")
	}
	status, body = getJSON(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: %d", status)
	}
	var health map[string]any
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if v, _ := health["go_version"].(string); !strings.HasPrefix(v, "go") {
		t.Fatalf("healthz go_version: %v", health)
	}
	if health["start_unix_ms"] == nil || health["uptime_ms"] == nil {
		t.Fatalf("healthz timing fields: %v", health)
	}
}

// TestRecorderDoesNotChangeResults pins the observability contract: a
// server with the query log and a small history ring returns exactly
// the tuples a default server returns, and the NDJSON log carries the
// envelope's query id.
func TestRecorderDoesNotChangeResults(t *testing.T) {
	query := `{"session": %q, "query": "R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from R0\nR2 = project R1 on name"}`

	_, plain := newTestServer(t, Config{}, nil)
	plainID := openSession(t, plain, `{"par": 1}`)
	status, want, body := runQueryReq(t, plain, fmt.Sprintf(query, plainID))
	if status != http.StatusOK {
		t.Fatalf("plain query: %d %s", status, body)
	}

	var log bytes.Buffer
	_, recorded := newTestServer(t, Config{QueryHistory: 4, QueryLog: &log}, nil)
	recID := openSession(t, recorded, `{"par": 1}`)
	status, got, body := runQueryReq(t, recorded, fmt.Sprintf(query, recID))
	if status != http.StatusOK {
		t.Fatalf("recorded query: %d %s", status, body)
	}

	if got.Schema != want.Schema || got.Count != want.Count ||
		fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples) {
		t.Fatalf("recording changed the result:\nplain  %q %v\nrecord %q %v",
			want.Schema, want.Tuples, got.Schema, got.Tuples)
	}

	line := strings.TrimSpace(log.String())
	if strings.Count(line, "\n") != 0 || line == "" {
		t.Fatalf("query log: want exactly one NDJSON line, got:\n%s", log.String())
	}
	var rec obs.FlightRecord
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("query log line: %v\n%s", err, line)
	}
	if rec.ID != got.QueryID || rec.Rows != got.Count || rec.Outcome != obs.OutcomeOK {
		t.Fatalf("query log record %+v vs envelope id %q count %d", rec, got.QueryID, got.Count)
	}
}

func TestStreamHeaderCarriesQueryID(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	id := openSession(t, ts, `{"par": 1}`)
	status, body, _ := postJSON(t, ts.URL+"/v1/query", fmt.Sprintf(
		`{"session": %q, "query": "R = select x >= 1 from Land", "stream": true}`, id))
	if status != http.StatusOK {
		t.Fatalf("stream: %d %s", status, body)
	}
	header := strings.SplitN(string(body), "\n", 2)[0]
	var h map[string]any
	if err := json.Unmarshal([]byte(header), &h); err != nil {
		t.Fatalf("stream header: %v\n%s", err, header)
	}
	qid, _ := h["query_id"].(string)
	if !testQueryIDRe.MatchString(qid) {
		t.Fatalf("stream header query_id %q:\n%s", qid, header)
	}
}

// TestRenderTimeReported: the result tail — encode, write — runs after
// elapsed_ms is taken, so it must be reported on its own: as render_ms on
// the flight record (buffered and streamed, rules and queries). Taking the
// rows normalisation ordered and rendered shows as a "render" span under
// the query's root when explain is on. A failed query has no tail and
// omits the field.
func TestRenderTimeReported(t *testing.T) {
	_, ts := newTestServer(t, Config{}, map[string]*db.Database{"boxes": boxesDB()})
	id := openSession(t, ts, `{"db": "boxes", "par": 1}`)
	for _, req := range []string{
		`{"session": %q, "query": "R = join B and B", "explain": true, "max_rows": 3}`,
		`{"session": %q, "query": "R = join B and B", "stream": true}`,
		`{"session": %q, "rules": "q(id, x, y) :- B(id, x, y)."}`,
	} {
		status, body, _ := postJSON(t, ts.URL+"/v1/query", fmt.Sprintf(req, id))
		if status != http.StatusOK {
			t.Fatalf("%s: %d %s", req, status, body)
		}
		rec := recentRecords(t, ts.URL+"/v1/queries/recent?limit=1")[0]
		if rec.Outcome != "ok" || rec.Rows == 0 {
			t.Fatalf("%s: record %+v", req, rec)
		}
		if rec.RenderMS <= 0 {
			t.Errorf("%s: render_ms = %v, want > 0 (wall_ms %v)", req, rec.RenderMS, rec.WallMS)
		}
		if strings.Contains(req, "explain") {
			var resp queryResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if !resp.Truncated || len(resp.Tuples) != 3 || resp.Count != rec.Rows {
				t.Errorf("max_rows: truncated=%v, %d tuples, count %d (rows %d)", resp.Truncated, len(resp.Tuples), resp.Count, rec.Rows)
			}
			norm, render := strings.Index(resp.Explain, "normalize"), strings.Index(resp.Explain, "render")
			if norm < 0 || render < norm || !strings.Contains(grepLines(resp.Explain, "render"), "rows=3") {
				t.Errorf("explain tree lacks a render span after normalize:\n%s", resp.Explain)
			}
		}
	}
	status, body, _ := postJSON(t, ts.URL+"/v1/query", fmt.Sprintf(`{"session": %q, "query": "R = join B and Nope"}`, id))
	if status == http.StatusOK {
		t.Fatalf("query over an unknown relation succeeded: %s", body)
	}
	if rec := recentRecords(t, ts.URL+"/v1/queries/recent?limit=1")[0]; rec.Outcome == "ok" || rec.RenderMS != 0 {
		t.Errorf("failed query's record: %+v", rec)
	}
}

// corruptTuple breaks the invariant every operator relies on: tuple i's
// atom slice claims one atom and holds none, so the worker that evaluates
// it dereferences nil. No API builds such a tuple — it stands in for a bug
// in the engine's own code, which is what the pool's recover is for.
func corruptTuple(r *relation.Relation, i int) {
	cs := reflect.ValueOf(&r.Tuples()[i]).Elem().FieldByName("con").FieldByName("cs")
	type sliceHeader struct {
		data     unsafe.Pointer
		len, cap int
	}
	*(*sliceHeader)(unsafe.Pointer(cs.UnsafeAddr())) = sliceHeader{nil, 1, 1}
}

// TestWorkerPanicFailsOnlyItsQuery: a panic inside a pool worker of a real
// operator is a 500 on that query — with its id, recorded as an error —
// and neither the daemon nor the session (its mutex, its bindings) is lost.
func TestWorkerPanicFailsOnlyItsQuery(t *testing.T) {
	p := datagen.Paper()
	d := db.New()
	d.Put("B", datagen.BoxRelation(p, 80, 0))
	bad := datagen.BoxRelation(p, 80, 0) // ≥ exec.DefaultSeqThreshold items: select fans out
	corruptTuple(bad, 3)
	d.Put("P", bad)
	_, ts := newTestServer(t, Config{}, map[string]*db.Database{"poisoned": d})
	id := openSession(t, ts, `{"db": "poisoned", "par": 4}`)

	_, body, _ := postJSON(t, ts.URL+"/v1/query",
		fmt.Sprintf(`{"session": %q, "query": "R = select x >= 0 from P"}`, id))
	var env struct {
		Status  int    `json:"status"`
		Error   string `json:"error"`
		QueryID string `json:"query_id"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error envelope: %v\n%s", err, body)
	}
	if env.Status != http.StatusInternalServerError || !testQueryIDRe.MatchString(env.QueryID) ||
		!strings.Contains(env.Error, "exec: panic in worker") {
		t.Fatalf("panicking query: %s", body)
	}
	recent := recentRecords(t, ts.URL+"/v1/queries/recent")
	if len(recent) != 1 || recent[0].ID != env.QueryID || recent[0].Outcome != obs.OutcomeError {
		t.Fatalf("flight record of the panicking query: %+v", recent)
	}

	status, resp, body := runQueryReq(t, ts,
		fmt.Sprintf(`{"session": %q, "query": "R = select x >= 0 from B"}`, id))
	if status != http.StatusOK || resp.Count == 0 {
		t.Fatalf("next query on the session: %d %s", status, body)
	}
}
