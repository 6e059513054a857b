package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"cdb/internal/datagen"
	"cdb/internal/db"
	"cdb/internal/hurricane"
	"cdb/internal/snapshot"
)

// newTestServer builds a Server over the hurricane demo database (plus
// any extras) behind an httptest listener.
func newTestServer(t *testing.T, cfg Config, extras map[string]*db.Database) (*Server, *httptest.Server) {
	t.Helper()
	dbs := map[string]*db.Database{"hurricane": hurricane.Build()}
	for name, d := range extras {
		dbs[name] = d
	}
	s := New(dbs, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b, resp.Header
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// openSession creates a session and returns its id.
func openSession(t *testing.T, ts *httptest.Server, opts string) string {
	t.Helper()
	status, body, _ := postJSON(t, ts.URL+"/v1/sessions", opts)
	if status != http.StatusCreated {
		t.Fatalf("session create: status %d, body %s", status, body)
	}
	var info sessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("session create response: %v", err)
	}
	if info.ID == "" {
		t.Fatalf("session create returned empty id: %s", body)
	}
	return info.ID
}

// query runs a query request and decodes the response.
func runQueryReq(t *testing.T, ts *httptest.Server, req string) (int, queryResponse, []byte) {
	t.Helper()
	status, body, _ := postJSON(t, ts.URL+"/v1/query", req)
	var resp queryResponse
	if status == http.StatusOK {
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("query response: %v\n%s", err, body)
		}
	}
	return status, resp, body
}

func TestHealthAndDBs(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	status, body := getJSON(t, ts.URL+"/healthz")
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", status, body)
	}
	status, body = getJSON(t, ts.URL+"/v1/dbs")
	if status != http.StatusOK {
		t.Fatalf("dbs: %d", status)
	}
	for _, want := range []string{`"hurricane"`, `"Land"`, `"Landownership"`, `"Hurricane"`} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("dbs listing missing %s:\n%s", want, body)
		}
	}
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	id := openSession(t, ts, `{"par": 2}`)

	status, body := getJSON(t, ts.URL+"/v1/sessions/"+id)
	if status != http.StatusOK || !bytes.Contains(body, []byte(id)) {
		t.Fatalf("session get: %d %s", status, body)
	}
	status, body = getJSON(t, ts.URL+"/v1/sessions")
	if status != http.StatusOK || !bytes.Contains(body, []byte(id)) {
		t.Fatalf("session list: %d %s", status, body)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session delete: %d", resp.StatusCode)
	}
	if status, _ := getJSON(t, ts.URL+"/v1/sessions/"+id); status != http.StatusNotFound {
		t.Fatalf("deleted session still answers: %d", status)
	}
	// Querying the closed session fails with 404.
	status, _, _ = runQueryReq(t, ts, fmt.Sprintf(`{"session": %q, "query": "R = select x >= 1 from Land"}`, id))
	if status != http.StatusNotFound {
		t.Fatalf("query on closed session: %d, want 404", status)
	}
}

func TestSessionDefaultsAndValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	// Empty body: defaults, db inferred (single-db registry).
	id := openSession(t, ts, ``)
	if id == "" {
		t.Fatal("empty-body session create failed")
	}
	// Unknown database.
	status, _, _ := postJSON(t, ts.URL+"/v1/sessions", `{"db": "nope"}`)
	if status != http.StatusNotFound {
		t.Fatalf("unknown db: %d, want 404", status)
	}
	// Unknown field rejected.
	status, _, _ = postJSON(t, ts.URL+"/v1/sessions", `{"bogus": 1}`)
	if status != http.StatusBadRequest {
		t.Fatalf("unknown field: %d, want 400", status)
	}
}

// TestSessionPlanOption: plan modes are not session surface, and neither is
// a sat-cache (the server has one). A plan, like the other retired options,
// is rejected up front as an unknown field naming itself; the session info
// holds exactly the session's own fields, no plan and no cache.
func TestSessionPlanOption(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	for _, tc := range []struct{ body, field string }{
		{`{"plan": "vector"}`, "plan"},
		{`{"plan": "auto"}`, "plan"},
		{`{"no_prune": true}`, "no_prune"},
		{`{"sweep_threshold": 8}`, "sweep_threshold"},
		{`{"seq_threshold": 8}`, "seq_threshold"},
		{`{"sat_cache": 0}`, "sat_cache"},
		{`{"sat_cache": 128}`, "sat_cache"},
	} {
		status, body, _ := postJSON(t, ts.URL+"/v1/sessions", tc.body)
		if status != http.StatusBadRequest || !bytes.Contains(body, []byte(tc.field)) {
			t.Fatalf("%s: status %d, want 400 naming %q: %s", tc.body, status, tc.field, body)
		}
	}
	id := openSession(t, ts, ``)
	status, body := getJSON(t, ts.URL+"/v1/sessions/"+id)
	if status != http.StatusOK {
		t.Fatalf("session info: %d %s", status, body)
	}
	var info map[string]any
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, " "), "created_unix_ms db id idle_ms queries workers"; got != want {
		t.Fatalf("session info fields %q, want %q: %s", got, want, body)
	}
}

func TestSessionLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 2}, nil)
	openSession(t, ts, ``)
	openSession(t, ts, ``)
	status, _, hdr := postJSON(t, ts.URL+"/v1/sessions", ``)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over session limit: %d, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	id := openSession(t, ts, ``)
	for _, tc := range []struct {
		name, req string
		want      int
	}{
		{"neither", fmt.Sprintf(`{"session": %q}`, id), http.StatusBadRequest},
		{"both", fmt.Sprintf(`{"session": %q, "query": "R = select x >= 1 from Land", "rules": "X(y) :- Land(y, x, z)."}`, id), http.StatusBadRequest},
		{"parse error", fmt.Sprintf(`{"session": %q, "query": "garbage"}`, id), http.StatusBadRequest},
		{"unknown relation", fmt.Sprintf(`{"session": %q, "query": "R = select x >= 1 from Nope"}`, id), http.StatusUnprocessableEntity},
		{"no such session", `{"session": "nope", "query": "R = select x >= 1 from Land"}`, http.StatusNotFound},
		{"bad json", `{`, http.StatusBadRequest},
	} {
		status, _, body := runQueryReq(t, ts, tc.req)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.want, body)
		}
	}
}

func TestQueryStatsExplainTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	id := openSession(t, ts, `{"par": 2}`)
	status, resp, body := runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "R0 = join Landownership and Land\nR1 = project R0 on name", "stats": true, "explain": true, "trace": true}`, id))
	if status != http.StatusOK {
		t.Fatalf("query: %d %s", status, body)
	}
	if len(resp.Stats) == 0 {
		t.Fatal("stats requested but missing")
	}
	ops := map[string]bool{}
	for _, op := range resp.Stats {
		ops[op.Op] = true
	}
	if !ops["join"] || !ops["project"] {
		t.Fatalf("stats missing operators: %v", ops)
	}
	if !strings.Contains(resp.Explain, "join") || !strings.Contains(resp.Explain, "stmt") {
		t.Fatalf("explain tree missing plan nodes:\n%s", resp.Explain)
	}
	var trace []map[string]any
	if err := json.Unmarshal(resp.Trace, &trace); err != nil || len(trace) == 0 {
		t.Fatalf("trace is not a span array: %v %s", err, resp.Trace)
	}
	// The server's sat-cache counters are /metrics' (cdb_satcache_*), not
	// a block of every stats reply.
	if bytes.Contains(body, []byte(`"cache"`)) {
		t.Fatalf("stats reply carries a cache block:\n%s", body)
	}
}

func TestQueryStream(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	id := openSession(t, ts, ``)
	q := `R = select x >= 1 from Land`
	// Reference: the same query, non-streaming.
	status, want, _ := runQueryReq(t, ts, fmt.Sprintf(`{"session": %q, "query": %q}`, id, q))
	if status != http.StatusOK {
		t.Fatalf("reference query: %d", status)
	}

	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"session": %q, "query": %q, "stream": true}`, id, q)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var header struct {
		Schema string `json:"schema"`
		Count  int    `json:"count"`
	}
	var tuples []string
	var trailer struct {
		Done      bool     `json:"done"`
		ElapsedMS *float64 `json:"elapsed_ms"`
	}
	sc := bufio.NewScanner(resp.Body)
	line := 0
	for sc.Scan() {
		switch {
		case line == 0:
			if err := json.Unmarshal(sc.Bytes(), &header); err != nil {
				t.Fatalf("stream header: %v", err)
			}
		case bytes.Contains(sc.Bytes(), []byte(`"tuple"`)):
			var row struct {
				Tuple string `json:"tuple"`
			}
			if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
				t.Fatalf("stream row: %v", err)
			}
			tuples = append(tuples, row.Tuple)
		default:
			if err := json.Unmarshal(sc.Bytes(), &trailer); err != nil {
				t.Fatalf("stream trailer: %v", err)
			}
		}
		line++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !trailer.Done || trailer.ElapsedMS == nil {
		t.Fatalf("stream trailer incomplete: done=%v", trailer.Done)
	}
	if header.Schema != want.Schema || header.Count != want.Count {
		t.Fatalf("stream header %+v vs non-stream %q/%d", header, want.Schema, want.Count)
	}
	if fmt.Sprint(tuples) != fmt.Sprint(want.Tuples) {
		t.Fatalf("streamed tuples differ:\n%v\n%v", tuples, want.Tuples)
	}
}

func TestMaxRowsTruncation(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	id := openSession(t, ts, ``)
	status, resp, _ := runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "R = select x >= 0 from Land", "max_rows": 1}`, id))
	if status != http.StatusOK {
		t.Fatalf("query: %d", status)
	}
	if len(resp.Tuples) != 1 || !resp.Truncated || resp.Count != 3 {
		t.Fatalf("truncation: %d tuples, truncated=%v, count=%d", len(resp.Tuples), resp.Truncated, resp.Count)
	}
}

// slowDB builds a database whose self-join is expensive: one relation of
// big boxes in one tight cluster (the repo benchmark's box-join shape), so
// nearly every one of the n² pairs overlaps and the filter prunes next to
// nothing. A millisecond deadline still does not always fire before it
// finishes, so the timeout tests hold the query past its deadline
// (holdPastDeadline).
func slowDB() *db.Database {
	p := datagen.Paper()
	p.SizeMin = 50
	d := db.New()
	d.Put("B", datagen.ClusteredBoxRelation(p, 120, 1, 10, 77))
	return d
}

// holdPastDeadline is a hookQueryStart that holds the admitted query until
// its deadline has passed, so that it times out whatever it costs.
func holdPastDeadline(ctx context.Context) { <-ctx.Done() }

func TestQueryTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{DefaultSatCache: -1}, map[string]*db.Database{"slow": slowDB()})
	id := openSession(t, ts, `{"db": "slow", "par": 2}`)
	s.hookQueryStart = holdPastDeadline
	status, _, body := runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "R = join B and B", "timeout_ms": 5}`, id))
	s.hookQueryStart = nil
	if status != http.StatusGatewayTimeout {
		t.Fatalf("timed-out query: status %d, body %s", status, body)
	}
	if !bytes.Contains(body, []byte("deadline")) {
		t.Fatalf("timeout error does not mention the deadline: %s", body)
	}
	if got := s.mTimeouts.Value(); got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
	// The session survives a timed-out query and still answers.
	status, resp, _ := runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "R = select x >= 0 from B", "timeout_ms": 30000}`, id))
	if status != http.StatusOK || resp.Count == 0 {
		t.Fatalf("query after timeout: %d, count %d", status, resp.Count)
	}
}

func TestInflightCapSheds429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1}, nil)
	id := openSession(t, ts, ``)
	started := make(chan struct{})
	release := make(chan struct{})
	s.hookQueryStart = func(context.Context) {
		started <- struct{}{}
		<-release
	}

	type result struct {
		status int
		resp   queryResponse
	}
	firstDone := make(chan result, 1)
	go func() {
		status, resp, _ := runQueryReq(t, ts, fmt.Sprintf(
			`{"session": %q, "query": "R = select x >= 1 from Land"}`, id))
		firstDone <- result{status, resp}
	}()
	<-started // the first query holds the only inflight slot

	status, _, hdr := postJSON(t, ts.URL+"/v1/query", fmt.Sprintf(
		`{"session": %q, "query": "R = select x >= 1 from Land"}`, id))
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-cap query: %d, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if got := s.mRejected.Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	close(release)
	res := <-firstDone
	if res.status != http.StatusOK || res.resp.Count == 0 {
		t.Fatalf("held query failed after release: %d", res.status)
	}
	// Capacity is free again.
	s.hookQueryStart = nil
	status, _, _ = runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "R = select x >= 1 from Land"}`, id))
	if status != http.StatusOK {
		t.Fatalf("query after release: %d", status)
	}
}

func TestShutdownDrainsInflight(t *testing.T) {
	s, ts := newTestServer(t, Config{}, nil)
	id := openSession(t, ts, ``)
	started := make(chan struct{})
	release := make(chan struct{})
	s.hookQueryStart = func(context.Context) {
		started <- struct{}{}
		<-release
	}

	type result struct {
		status int
		resp   queryResponse
	}
	inflight := make(chan result, 1)
	go func() {
		status, resp, _ := runQueryReq(t, ts, fmt.Sprintf(
			`{"session": %q, "query": "R0 = join Landownership and Land\nR2 = project R0 on name"}`, id))
		inflight <- result{status, resp}
	}()
	<-started // a query is now mid-flight

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(t.Context()) }()
	waitUntil(t, s.draining.Load, "server did not start draining")

	// New work is rejected while the drain waits.
	status, _, body := postJSON(t, ts.URL+"/v1/query", fmt.Sprintf(
		`{"session": %q, "query": "R = select x >= 1 from Land"}`, id))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: %d %s, want 503", status, body)
	}
	if status, _, _ := postJSON(t, ts.URL+"/v1/sessions", ``); status != http.StatusServiceUnavailable {
		t.Fatalf("session create during drain: %d, want 503", status)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a query was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}

	// The in-flight query runs to completion with a full result.
	close(release)
	res := <-inflight
	if res.status != http.StatusOK {
		t.Fatalf("drained query status %d, want 200", res.status)
	}
	if res.resp.Count != 4 {
		t.Fatalf("drained query count %d, want 4", res.resp.Count)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Sessions are closed after shutdown.
	if status, _ := getJSON(t, ts.URL+"/v1/sessions/"+id); status != http.StatusNotFound {
		t.Fatalf("session survived shutdown: %d", status)
	}
}

func waitUntil(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal(msg)
}

func TestIdleSessionReaped(t *testing.T) {
	s, ts := newTestServer(t, Config{SessionIdleTimeout: 50 * time.Millisecond}, nil)
	id := openSession(t, ts, ``)
	waitUntil(t, func() bool {
		_, ok := s.session(id)
		return !ok
	}, "idle session was never reaped")
	if got := s.mExpired.Value(); got != 1 {
		t.Fatalf("expired counter = %d, want 1", got)
	}
	if status, _ := getJSON(t, ts.URL+"/v1/sessions/"+id); status != http.StatusNotFound {
		t.Fatalf("reaped session still answers: %d", status)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	id := openSession(t, ts, ``)
	if status, _, _ := runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "R = select x >= 1 from Land"}`, id)); status != http.StatusOK {
		t.Fatal("query failed")
	}
	status, body := getJSON(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d", status)
	}
	for _, family := range []string{
		"cqacdbd_requests_total", "cqacdbd_request_seconds",
		"cqacdbd_inflight_queries", "cqacdbd_rejected_total",
		"cqacdbd_queries_total", "cqacdbd_sessions_active",
		"cqacdbd_sessions_opened_total",
		"cdb_fm_decisions_total", "cdb_satcache_hits_total",
		"cdb_op_in_total", "cdb_op_seconds",
	} {
		if !bytes.Contains(body, []byte(family)) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	// /debug/vars is the runtime's expvars; the registry is /metrics' alone.
	status, body = getJSON(t, ts.URL+"/debug/vars")
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); status != http.StatusOK || err != nil {
		t.Fatalf("/debug/vars: %d %v", status, err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Errorf("/debug/vars has no memstats: %s", body)
	}
	if _, ok := vars["cdb"]; ok {
		t.Errorf("/debug/vars carries a copy of the registry under cdb")
	}
}

// processFamilies is the exposition's HELP and TYPE lines of the sat-cache
// and snapshot-store families, in its sorted order: their names, help text
// and types are what a dashboard reads, so they are pinned byte for byte.
const processFamilies = `# HELP cdb_satcache_collisions_total Fingerprint collisions detected (and corrected) by the exactness guard.
# TYPE cdb_satcache_collisions_total counter
# HELP cdb_satcache_entries Resident sat-cache entries across all shards.
# TYPE cdb_satcache_entries gauge
# HELP cdb_satcache_evictions_total LRU evictions from the sat-cache.
# TYPE cdb_satcache_evictions_total counter
# HELP cdb_satcache_hits_total Satisfiability decisions answered by the memoized engine.
# TYPE cdb_satcache_hits_total counter
# HELP cdb_satcache_misses_total Satisfiability decisions that ran the raw eliminator (cache enabled).
# TYPE cdb_satcache_misses_total counter
# HELP cdb_snapshot_commits_total Snapshot commits (durable WAL commit records written).
# TYPE cdb_snapshot_commits_total counter
# HELP cdb_snapshot_forks_total Snapshot forks (manifest copies; no page I/O).
# TYPE cdb_snapshot_forks_total counter
# HELP cdb_snapshot_pages_free Allocated pages on the free list, awaiting reuse.
# TYPE cdb_snapshot_pages_free gauge
# HELP cdb_snapshot_pages_live Distinct pages referenced by at least one live snapshot.
# TYPE cdb_snapshot_pages_live gauge
# HELP cdb_snapshot_pages_reused_total Written pages that recycled a freed slot instead of growing the file.
# TYPE cdb_snapshot_pages_reused_total counter
# HELP cdb_snapshot_pages_shared_total Page references resolved by content dedup instead of a write.
# TYPE cdb_snapshot_pages_shared_total counter
# HELP cdb_snapshot_pages_written_total Content pages physically written by commits.
# TYPE cdb_snapshot_pages_written_total counter
# HELP cdb_snapshot_relations_decoded_total Relations a materialise decoded from their pages.
# TYPE cdb_snapshot_relations_decoded_total counter
# HELP cdb_snapshot_relations_encoded_total Relations a commit ordered, encoded, chunked and hashed.
# TYPE cdb_snapshot_relations_encoded_total counter
# HELP cdb_snapshot_relations_reused_total Relations a commit took the stored form of from the relation itself (no encoding; pages still compared and written).
# TYPE cdb_snapshot_relations_reused_total counter
# HELP cdb_snapshot_relations_shared_total Relations a materialise shared with a database still in memory (no decoding; pages still read and verified).
# TYPE cdb_snapshot_relations_shared_total counter
# HELP cdb_snapshot_releases_total Snapshots released (pages reclaimed by refcount).
# TYPE cdb_snapshot_releases_total counter
# HELP cdb_snapshots_live Snapshots currently live in the store.
# TYPE cdb_snapshots_live gauge
# HELP cdb_wal_appends_total WAL records appended.
# TYPE cdb_wal_appends_total counter
# HELP cdb_wal_bytes_total Bytes durably appended to the WAL.
# TYPE cdb_wal_bytes_total counter
# HELP cdb_wal_fsyncs_total WAL fsync batches (one per commit, fork or release).
# TYPE cdb_wal_fsyncs_total counter
`

// TestProcessFamiliesHelpAndType: the daemon declares the sat-cache's and
// the snapshot store's families, and declares them as they always read.
func TestProcessFamiliesHelpAndType(t *testing.T) {
	st, err := snapshot.Open(t.TempDir(), snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := newTestServer(t, Config{Snapshots: st}, nil)
	text, err := scrapeMetrics(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if strings.HasPrefix(line, "# ") && (strings.Contains(line, " cdb_satcache_") ||
			strings.Contains(line, " cdb_snapshot") || strings.Contains(line, " cdb_wal_")) {
			got.WriteString(line)
		}
	}
	if got.String() != processFamilies {
		t.Errorf("process families:\n%s\nwant:\n%s", got.String(), processFamilies)
	}
}

func TestRulesQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	id := openSession(t, ts, ``)
	status, resp, body := runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "rules": "Own(name) :- Landownership(name, t, landId).", "target": "Owners"}`, id))
	if status != http.StatusOK {
		t.Fatalf("rules query: %d %s", status, body)
	}
	if resp.Count != 4 || resp.Target != "Owners" {
		t.Fatalf("rules result: count=%d target=%q", resp.Count, resp.Target)
	}
	// The bound target is visible to a later query statement.
	status, resp, _ = runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "Z = select name = ann from Owners"}`, id))
	if status != http.StatusOK || resp.Count != 1 {
		t.Fatalf("query over rules binding: %d, count %d", status, resp.Count)
	}
	// target binds only a rules result: beside a query it is refused, not
	// dropped, and nothing is bound under it.
	status, _, body = runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "Z = select name = bob from Owners", "target": "Bobs"}`, id))
	if status != http.StatusBadRequest || !bytes.Contains(body, []byte("target")) {
		t.Fatalf("query with target: status %d, want 400 naming target: %s", status, body)
	}
	if _, sess := getJSON(t, ts.URL+"/v1/sessions/"+id); bytes.Contains(sess, []byte("Bobs")) {
		t.Fatalf("refused request bound its target: %s", sess)
	}
}
