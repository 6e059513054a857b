package server

// Golden test for the wire format (ISSUE 6 satellite): pin the JSON
// response shape of /v1/query so accidental field renames or encoding
// changes show up as a reviewable diff. Regenerate with:
//
//	go test ./internal/server -run TestGoldenQueryResponse -update
//
// Volatile values (the session id, the query id, elapsed wall time,
// start timestamps) are normalised before comparison so the file is
// stable across runs; the flight record's render_ms — a wall time that is
// omitted when zero — is cut out whole.

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
	sessionIDRe = regexp.MustCompile(`"s[0-9]+-[0-9a-f]{8}"`)
	queryIDRe   = regexp.MustCompile(`"q[0-9]+(-[0-9a-f]{8})?"`)
	elapsedRe   = regexp.MustCompile(`"elapsed_ms": [0-9.]+`)
	wallRe      = regexp.MustCompile(`"wall_ms": [0-9.]+`)
	startRe     = regexp.MustCompile(`"start_unix_ms": [0-9]+`)
	renderRe    = regexp.MustCompile(`\n *"render_ms": [0-9.e-]+,`)
)

func normalize(body []byte) string {
	out := sessionIDRe.ReplaceAll(body, []byte(`"SESSION"`))
	out = queryIDRe.ReplaceAll(out, []byte(`"QUERY"`))
	out = elapsedRe.ReplaceAll(out, []byte(`"elapsed_ms": 0`))
	out = wallRe.ReplaceAll(out, []byte(`"wall_ms": 0`))
	out = startRe.ReplaceAll(out, []byte(`"start_unix_ms": 0`))
	out = renderRe.ReplaceAll(out, nil)
	return string(out)
}

func TestGoldenQueryResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	// par 1 keeps the stats block deterministic (no parallel flag flips).
	id := openSession(t, ts, `{"par": 1}`)
	status, _, body := runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from R0\nR2 = project R1 on name", "stats": true}`, id))
	if status != 200 {
		t.Fatalf("query: %d %s", status, body)
	}
	got := normalize(body)

	path := filepath.Join("testdata", "query_response.golden.json")
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
		t.Errorf("response shape differs from %s (re-run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
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
	got := normalize(recent)

	path := filepath.Join("testdata", "queries_recent.golden.json")
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
		t.Errorf("flight-record shape differs from %s (re-run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
