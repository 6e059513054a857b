package server

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cdb/internal/exec"
	"cdb/internal/hurricane"
)

// The ISSUE acceptance bar: N ≥ 8 concurrent sessions issue interleaved
// multi-request programs and every response is byte-identical to what
// the REPL path (Database.Run, which normalises, rendered by Sorted +
// String) produces for the same statement prefix.

// equivPrograms are per-session statement sequences. Each inner slice
// is one /v1/query request; a session's requests share bindings, so
// later requests reference earlier targets — exactly like typing the
// statements into one REPL.
var equivPrograms = [][][]string{
	{
		{"R0 = join Landownership and Land"},
		{"R1 = select t >= 4, t <= 9 from R0", "R2 = project R1 on name"},
	},
	{
		{"A = select x >= 6 from Land", "B = project A on landId"},
		{"C = join B and Landownership"},
	},
	{
		{"H = join Hurricane and Track"},
		{"H2 = select t >= 0 from H", "H3 = project H2 on x, y"},
	},
	{
		{"P = project Landownership on name, landId"},
		{"Q = join P and Land", "S = select x <= 8 from Q"},
	},
}

// referenceLines runs the first n statements of prog through the REPL
// execution path on a fresh database and renders the final result the
// way the server does.
func referenceLines(t *testing.T, prog []string, ec *exec.Context) (string, []string) {
	t.Helper()
	rel, err := hurricane.Build().Run(strings.Join(prog, "\n"), ec)
	if err != nil {
		t.Fatalf("reference Run(%q): %v", prog, err)
	}
	lines := make([]string, 0, len(rel.Sorted()))
	for _, tp := range rel.Sorted() {
		lines = append(lines, tp.String())
	}
	return rel.Schema().String(), lines
}

func TestConcurrentSessionsMatchREPL(t *testing.T) {
	const sessionsPerProgram = 3 // 4 programs × 3 = 12 concurrent sessions
	// Every third duplicate runs on a server without a sat-cache, so cached
	// and uncached sessions are both represented in the same concurrent run.
	_, cached := newTestServer(t, Config{}, nil)
	_, uncached := newTestServer(t, Config{DefaultSatCache: -1}, nil)

	var wg sync.WaitGroup
	for p, prog := range equivPrograms {
		for dup := 0; dup < sessionsPerProgram; dup++ {
			ts := cached
			if dup%3 == 2 {
				ts = uncached
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				runEquivSession(t, ts, p, dup, prog)
			}()
		}
	}
	wg.Wait()
}

// runEquivSession opens one session, issues the program's requests in
// order, and checks each response against the REPL reference for the
// statement prefix executed so far.
func runEquivSession(t *testing.T, ts *httptest.Server, p, dup int, prog [][]string) {
	// Vary the knobs across duplicates so sequential and parallel
	// sessions are both represented in the same concurrent run.
	opts := [...]string{`{"par": 1}`, `{"par": 4}`, `{"par": 2}`}[dup%3]
	id := openSession(t, ts, opts)

	var prefix []string
	for _, stmts := range prog {
		prefix = append(prefix, stmts...)
		status, resp, body := runQueryReq(t, ts, fmt.Sprintf(
			`{"session": %q, "query": %q}`, id, strings.Join(stmts, "\n")))
		if status != 200 {
			t.Errorf("program %d dup %d: status %d: %s", p, dup, status, body)
			return
		}
		// The reference always runs sequentially without a cache: if the
		// server output matches it regardless of this session's knobs,
		// the parallel path is byte-identical too.
		wantSchema, wantLines := referenceLines(t, prefix, exec.New(1))
		if resp.Schema != wantSchema {
			t.Errorf("program %d dup %d after %q: schema %q, want %q",
				p, dup, prefix, resp.Schema, wantSchema)
			return
		}
		if len(resp.Tuples) != len(wantLines) {
			t.Errorf("program %d dup %d after %q: %d tuples, want %d\ngot:  %v\nwant: %v",
				p, dup, prefix, len(resp.Tuples), len(wantLines), resp.Tuples, wantLines)
			return
		}
		for i := range wantLines {
			if resp.Tuples[i] != wantLines[i] {
				t.Errorf("program %d dup %d after %q: tuple %d differs\ngot:  %s\nwant: %s",
					p, dup, prefix, i, resp.Tuples[i], wantLines[i])
				return
			}
		}
	}
}

// TestSessionIsolation: two sessions bind the same target name to
// different results; neither sees the other's binding, and the shared
// base database is untouched.
func TestSessionIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	a := openSession(t, ts, ``)
	b := openSession(t, ts, ``)

	if status, _, _ := runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "R = select x >= 6 from Land"}`, a)); status != 200 {
		t.Fatal("session a query failed")
	}
	if status, _, _ := runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "R = project Landownership on name"}`, b)); status != 200 {
		t.Fatal("session b query failed")
	}

	// a's R is still the Land selection...
	status, resp, _ := runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "Z = project R on landId"}`, a))
	if status != 200 || !strings.Contains(resp.Schema, "landId") {
		t.Fatalf("session a lost its binding: %d %q", status, resp.Schema)
	}
	// ...and b's R is the name projection.
	status, resp, _ = runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "Z = select name = ann from R"}`, b))
	if status != 200 || resp.Count != 1 {
		t.Fatalf("session b lost its binding: %d count=%d", status, resp.Count)
	}
	// A third, fresh session sees only the base relations: R undefined.
	c := openSession(t, ts, ``)
	if status, _, _ := runQueryReq(t, ts, fmt.Sprintf(
		`{"session": %q, "query": "Z = project R on landId"}`, c)); status != 422 {
		t.Fatalf("fresh session sees another session's binding: %d", status)
	}
}
