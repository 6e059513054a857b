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
	"regexp"
	"strings"
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

// rule3 is the paper's Query 3 as one three-atom rule; landId is spelled id
// so the translation has something to rename.
const rule3 = `hit(name) :- Landownership(name, t, id), Land(id, x, y), Hurricane(t, x, y), t >= 4, t <= 9.`

// TestGoldenRule3 pins the calculus face on the same database and the same
// question as TestGoldenQuery3: apart from the script banner, the two
// goldens are one answer.
func TestGoldenRule3(t *testing.T) {
	got := captureRun(t, []string{
		"-par", "1",
		"-db", filepath.Join("..", "..", "testdata", "hurricane.cqa"),
		"-rules", rule3,
	})
	checkGolden(t, "rule3.golden", got)
	q3, err := os.ReadFile(filepath.Join("testdata", "query3.golden"))
	if err != nil {
		t.Fatal(err)
	}
	banner := regexp.MustCompile(`(?m)^== .* ==\n`)
	if want := banner.ReplaceAllString(string(q3), ""); got != want {
		t.Errorf("the rule's output is not Query 3's:\n--- rule ---\n%s\n--- query3.golden without its banner ---\n%s", got, want)
	}
}

// TestGoldenRule3Explain pins the shape of the plan a rule compiles to: the
// prepared atoms (one simultaneous rename each, no rename for an atom
// written in the relation's own names), then two joins that the pairing
// filter prunes (pairs_pruned > 0), the shared-variable comparisons and the
// head projection above them, and no rename above the joins. Wall times
// are stripped; everything else in the tree is deterministic at one worker.
func TestGoldenRule3Explain(t *testing.T) {
	got := captureRun(t, []string{
		"-par", "1", "-explain",
		"-db", filepath.Join("..", "..", "testdata", "hurricane.cqa"),
		"-rules", rule3,
	})
	got = regexp.MustCompile(`  wall=\S+`).ReplaceAllString(got, "")
	checkGolden(t, "rule3_explain.golden", got)
	if strings.Count(got, "─ join") != 2 || strings.Count(got, " pairs_pruned=") != 2 {
		t.Errorf("want two joins, each with pairs_pruned > 0:\n%s", got)
	}
}
