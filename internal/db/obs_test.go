package db

import (
	"bytes"
	"strings"
	"testing"

	"cdb/internal/exec"
	"cdb/internal/obs"
)

// TestRunCtxSpans checks the database layer's tracing contract: Run
// wraps the whole program in a "query" root span (detail = first query
// line) with the statements and the final normalisation pass nested
// below it.
func TestRunCtxSpans(t *testing.T) {
	d, err := Load(strings.NewReader(sampleDB), nil)
	if err != nil {
		t.Fatal(err)
	}
	ec := exec.New(1)
	ec.Tracer = obs.NewTracer()
	if _, err := d.Run("R0 = select x >= 1 from R", ec); err != nil {
		t.Fatal(err)
	}
	roots := ec.Tracer.Roots()
	if len(roots) != 1 || roots[0].Name != "query" {
		t.Fatalf("roots = %v, want one query span", roots)
	}
	if roots[0].Detail != "R0 = select x >= 1 from R" {
		t.Errorf("query detail = %q, want the first query line", roots[0].Detail)
	}
	var names []string
	for _, c := range roots[0].Children() {
		names = append(names, c.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"stmt", "normalize"} {
		if !strings.Contains(joined, want) {
			t.Errorf("query span children = %v, missing %q", names, want)
		}
	}
}

// TestSaveLoadSpans checks that Load opens a db.load span counting the
// relations and tuples read.
func TestSaveLoadSpans(t *testing.T) {
	d, err := Load(strings.NewReader(sampleDB), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ec := exec.New(1)
	ec.Tracer = obs.NewTracer()
	if _, err := Load(bytes.NewReader(buf.Bytes()), ec); err != nil {
		t.Fatal(err)
	}

	roots := ec.Tracer.Roots()
	if len(roots) != 1 || roots[0].Name != "db.load" {
		t.Fatalf("roots = %v, want [db.load]", roots)
	}
	sp := roots[0]
	if sp.Counters()["relations"] != 2 {
		t.Errorf("%s relations = %d, want 2", sp.Name, sp.Counters()["relations"])
	}
	if sp.Counters()["tuples"] != 5 {
		t.Errorf("%s tuples = %d, want 5", sp.Name, sp.Counters()["tuples"])
	}
}
