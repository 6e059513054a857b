package main

// End-to-end daemon test: boot the real entry point on a free port,
// talk to it over HTTP, deliver SIGTERM to the process, and check the
// graceful-drain path runs to completion.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// lockedBuf is an io.Writer the daemon goroutine and the test poll
// concurrently.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRe = regexp.MustCompile(`cqacdbd listening on (http://\S+)`)

// startDaemon boots run() on a free port and waits for the listen line.
func startDaemon(t *testing.T, args []string) (base string, out *lockedBuf, done chan error) {
	t.Helper()
	out = &lockedBuf{}
	done = make(chan error, 1)
	go func() { done <- run(args, out) }()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			return m[1], out, done
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before listening: %v\n%s", err, out.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatalf("daemon never printed its listen line:\n%s", out.String())
	return "", nil, nil
}

func TestDaemonEndToEnd(t *testing.T) {
	base, out, done := startDaemon(t, []string{"-demo", "hurricane", "-addr", "127.0.0.1:0", "-quiet"})

	if !strings.Contains(out.String(), "serving hurricane: 4 relations, 11 tuples") {
		t.Fatalf("startup banner missing the db summary:\n%s", out.String())
	}

	// Open a session and run the §3.3 case-study query.
	resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var sess struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || sess.ID == "" {
		t.Fatalf("session create: %d id=%q", resp.StatusCode, sess.ID)
	}

	q := `{"session": %q, "query": "R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from R0\nR2 = project R1 on name"}`
	resp, err = http.Post(base+"/v1/query", "application/json",
		strings.NewReader(fmt.Sprintf(q, sess.ID)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var qr struct {
		Count  int      `json:"count"`
		Tuples []string `json:"tuples"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Count != 4 {
		t.Fatalf("case-study query count %d, want 4:\n%s", qr.Count, body)
	}

	// Metrics come off the same listener.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(metrics, []byte("cqacdbd_queries_total 1")) {
		t.Fatalf("/metrics missing query counter:\n%.2000s", metrics)
	}

	// SIGTERM → graceful drain → clean exit.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with error: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM:\n%s", out.String())
	}
	got := out.String()
	if !strings.Contains(got, "cqacdbd: draining...") || !strings.Contains(got, "cqacdbd: bye") {
		t.Fatalf("drain messages missing:\n%s", got)
	}
}

func TestDaemonServesDatabaseFile(t *testing.T) {
	// A minimal database file exercises the -db name=path flag.
	path := filepath.Join(t.TempDir(), "tiny.cqa")
	src := "relation Box\nschema x rational constraint, y rational constraint\ntuple | x >= 0, x <= 2, y >= 0, y <= 2\nend\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	base, _, done := startDaemon(t, []string{"-db", "tiny=" + path, "-addr", "127.0.0.1:0", "-quiet"})

	resp, err := http.Get(base + "/v1/dbs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte(`"tiny"`)) || !bytes.Contains(body, []byte(`"Box"`)) {
		t.Fatalf("/v1/dbs missing the loaded file:\n%s", body)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
}

func TestFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-demo", "nope"}, &out); err == nil {
		t.Fatal("unknown demo accepted")
	}
	if err := run(nil, &out); err == nil {
		t.Fatal("no databases accepted")
	}
	if err := run([]string{"-db", "broken"}, &out); err == nil {
		t.Fatal("malformed -db accepted")
	}
}

// TestDaemonFlightRecorder boots with the flight-recorder flags and
// exercises the query-history endpoints plus the NDJSON query log.
func TestDaemonFlightRecorder(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "queries.ndjson")
	base, out, done := startDaemon(t, []string{"-demo", "hurricane",
		"-addr", "127.0.0.1:0", "-quiet",
		"-query-history", "8", "-query-log", logPath})

	resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(`{"par": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	var sess struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Post(base+"/v1/query", "application/json", strings.NewReader(fmt.Sprintf(
		`{"session": %q, "query": "R = select x >= 1 from Land"}`, sess.ID)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"query_id"`)) {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}

	// The finished query is in the history ring...
	resp, err = http.Get(base + "/v1/queries/recent")
	if err != nil {
		t.Fatal(err)
	}
	recent, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// The encoder escapes ">" in the statement, so match around it.
	if !bytes.Contains(recent, []byte(`"outcome": "ok"`)) ||
		!bytes.Contains(recent, []byte("1 from Land")) {
		t.Fatalf("queries/recent missing the query:\n%s", recent)
	}
	// ...and in the NDJSON log file.
	logged, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(logged, []byte(`"outcome":"ok"`)) {
		t.Fatalf("query log:\n%s", logged)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with error: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM:\n%s", out.String())
	}
}
