package main

// Golden end-to-end tests (ISSUE 4 satellite): run the real CLI entry
// point over the committed testdata database and query scripts and pin the
// rendered output byte-for-byte. Regenerate with:
//
//	go test ./cmd/cqacdb -run TestGolden -update
//
// and review the diff like any other code change.

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// captureRun runs the CLI with os.Stdout redirected through a pipe and
// returns everything it printed.
func captureRun(t *testing.T, args []string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run(%v): %v\noutput so far:\n%s", args, runErr, out)
	}
	return string(out)
}

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
		t.Errorf("output differs from %s (re-run with -update if the change is intended):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestGoldenQuery3(t *testing.T) {
	got := captureRun(t, []string{
		"-par", "1", // goldens never depend on the host's core count
		"-db", filepath.Join("..", "..", "testdata", "hurricane.cqa"),
		filepath.Join("..", "..", "testdata", "query3.cqa"),
	})
	checkGolden(t, "query3.golden", got)
}

// TestGoldenHurricaneDB pins the whole-database rendering: loading the
// committed hurricane database and listing every relation exercises the
// db text format end to end.
func TestGoldenHurricaneDB(t *testing.T) {
	got := captureRun(t, []string{
		"-par", "1",
		"-db", filepath.Join("..", "..", "testdata", "hurricane.cqa"),
		"-e", "R = select t >= 4, t <= 9 from (join Hurricane and Land)",
	})
	checkGolden(t, "hurricane_select.golden", got)
}
