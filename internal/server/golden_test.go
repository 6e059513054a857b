package server

// Golden tests for the wire format: pin the JSON response shape of
// /v1/query so accidental field renames or encoding changes show up as a
// reviewable diff. Regenerate with:
//
//	go test ./internal/server -run TestGolden -update
//
// Volatile values (the session id, the query id, elapsed and span wall
// times, start timestamps and offsets) are normalised before comparison so
// the files are stable across runs; the flight record's render_ms — a wall
// time that is omitted when zero — is cut out whole.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

var (
	sessionIDRe  = regexp.MustCompile(`"s[0-9]+-[0-9a-f]{8}"`)
	queryIDRe    = regexp.MustCompile(`"q[0-9]+(-[0-9a-f]{8})?"`)
	queryLabelRe = regexp.MustCompile(`query_id=q[0-9]+-[0-9a-f]{8}`)
	elapsedRe    = regexp.MustCompile(`("elapsed_ms": ?)[0-9.e-]+`)
	wallRe       = regexp.MustCompile(`("wall_ms": ?)[0-9.e-]+`)
	spanTimeRe   = regexp.MustCompile(`("(start|wall)_ns": ?)[0-9]+`)
	treeWallRe   = regexp.MustCompile(`  wall=[0-9.]+(ns|µs|ms|s)`)
	startRe      = regexp.MustCompile(`"start_unix_ms": [0-9]+`)
	renderRe     = regexp.MustCompile(`\n *"render_ms": [0-9.e-]+,`)
)

func normalize(body []byte) string {
	out := sessionIDRe.ReplaceAll(body, []byte(`"SESSION"`))
	out = queryIDRe.ReplaceAll(out, []byte(`"QUERY"`))
	out = queryLabelRe.ReplaceAll(out, []byte(`query_id=QUERY`))
	out = elapsedRe.ReplaceAll(out, []byte(`${1}0`))
	out = wallRe.ReplaceAll(out, []byte(`${1}0`))
	out = spanTimeRe.ReplaceAll(out, []byte(`${1}0`))
	out = treeWallRe.ReplaceAll(out, nil)
	out = startRe.ReplaceAll(out, []byte(`"start_unix_ms": 0`))
	out = renderRe.ReplaceAll(out, nil)
	return string(out)
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("wire bytes differ from %s (re-run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// goldenProgram is Query 3 up to its selection: every result tuple carries
// a constraint part, so the replies hold "<=" (escaped as \u003c= on the
// wire) in the tuples, the EXPLAIN text and the trace details.
const goldenProgram = `R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from R0`

func TestGoldenQueryResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	// par 1 keeps the stats block deterministic (no parallel flag flips).
	id := openSession(t, ts, `{"par": 1}`)
	status, _, body := runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from R0\nR2 = project R1 on name", "stats": true}`, id))
	if status != 200 {
		t.Fatalf("query: %d %s", status, body)
	}
	checkGolden(t, "query_response.golden.json", normalize(body))
}

// TestGoldenConstraintResponse pins a buffered reply of constraint tuples
// with EXPLAIN text and trace JSON: the HTML escaping of "<" in all three,
// and the trace re-indented one level deep.
func TestGoldenConstraintResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	id := openSession(t, ts, `{"par": 1}`)
	status, _, body := runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "%s", "explain": true, "trace": true}`, id, goldenProgram))
	if status != 200 {
		t.Fatalf("query: %d %s", status, body)
	}
	checkGolden(t, "constraint_response.golden.json", normalize(body))
}

// TestGoldenStreamResponse pins the NDJSON body: the header's and the
// trailer's sorted keys, one tuple object per line, and a trailer carrying
// stats, explain and the max_rows truncation.
func TestGoldenStreamResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	id := openSession(t, ts, `{"par": 1}`)
	status, body, hdr := postJSON(t, ts.URL+"/v1/query", fmt.Sprintf(
		`{"session": %q, "query": "%s", "stream": true, "stats": true, "explain": true, "max_rows": 3}`, id, goldenProgram))
	if status != 200 {
		t.Fatalf("query: %d %s", status, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	checkGolden(t, "stream_response.golden.ndjson", normalize(body))
}

// TestGoldenQueriesRecent pins the flight-record wire shape of
// GET /v1/queries/recent the same way: a deterministic program on a
// fresh par-1 session, volatile identities and wall times normalised.
func TestGoldenQueriesRecent(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	id := openSession(t, ts, `{"par": 1}`)
	status, _, body := runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from R0\nR2 = project R1 on name"}`, id))
	if status != 200 {
		t.Fatalf("query: %d %s", status, body)
	}
	status, recent := getJSON(t, ts.URL+"/v1/queries/recent")
	if status != 200 {
		t.Fatalf("queries/recent: %d %s", status, recent)
	}
	checkGolden(t, "queries_recent.golden.json", normalize(recent))
}
