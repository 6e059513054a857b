package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/db"
	"cdb/internal/exec"
	"cdb/internal/hurricane"
	"cdb/internal/obs"
)

func TestRunEvalFlag(t *testing.T) {
	if err := run([]string{"-demo", "hurricane", "-e",
		"R = select landId = A from Landownership"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunScriptFile(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "h.cqa")
	if err := hurricane.Build().SaveFile(dbPath); err != nil {
		t.Fatal(err)
	}
	script := filepath.Join(dir, "q.cqa")
	if err := os.WriteFile(script, []byte(hurricane.Queries()[2].Text), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-db", dbPath, script}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-demo", "nope"}); err == nil {
		t.Error("unknown demo accepted")
	}
	if err := run([]string{"-db", "/no/such/file.cqa", "-e", "R = X"}); err == nil {
		t.Error("missing db file accepted")
	}
	if err := run([]string{"-demo", "hurricane", "-e", "R = select from X"}); err == nil {
		t.Error("bad query accepted")
	}
	if err := run([]string{"-demo", "hurricane", "/no/such/script.cqa"}); err == nil {
		t.Error("missing script accepted")
	}
	// Plan modes are not user surface: -plan is an unknown flag.
	if err := run([]string{"-demo", "hurricane", "-plan", "dense", "-e", "R = select x >= 1 from Land"}); err == nil {
		t.Error("-plan accepted")
	}
}

func TestREPLSession(t *testing.T) {
	d := hurricane.Build()
	savePath := filepath.Join(t.TempDir(), "session.cqa")
	in := strings.NewReader(strings.Join([]string{
		`\list`,
		`R0 = select landId = A from Landownership`,
		`R1 = project R0 on name`,
		`\show R1`,
		`\schema Land`,
		`\show Missing`,
		`\schema Missing`,
		`\badcmd`,
		`R2 = select broken ===`,
		`R3 = select z = 1 from Land`,
		``,
		`\save ` + savePath,
		`\quit`,
	}, "\n"))
	var out bytes.Buffer
	if err := repl(d, 10, &session{ec: exec.New(1)}, in, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"Landownership",               // \list
		`name="ann"`,                  // query result
		"[landId: string, relational", // \schema Land
		`no relation "Missing"`,
		`unknown command`,
		"saved " + savePath,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("repl output missing %q:\n%s", want, got)
		}
	}
	// The session's intermediate results were persisted and saved.
	re, err := db.LoadFile(savePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := re.Get("R1"); !ok {
		t.Errorf("session result R1 not saved; relations: %v", re.Names())
	}
	// EOF without \quit is a clean exit.
	var out2 bytes.Buffer
	if err := repl(d, 10, &session{ec: exec.New(1)}, strings.NewReader("\\list\n"), &out2); err != nil {
		t.Fatal(err)
	}
}

// TestREPLLineIsRunCtx: a shell line runs the statement loop -e runs, once:
// it prints the normalised result -e prints for the same program and makes
// exactly the Fourier-Motzkin decisions Database.RunCtx makes.
func TestREPLLineIsRunCtx(t *testing.T) {
	for _, line := range []string{
		`R0 = select x + y >= 0 from Land`,
		`R0 = join Landownership and Land`,
		`R0 = join Hurricane and Land`,
	} {
		d0 := constraint.DecisionCount()
		want, err := hurricane.Build().RunCtx(line, exec.New(1))
		if err != nil {
			t.Fatal(err)
		}
		wantDecisions := constraint.DecisionCount() - d0
		var wantOut bytes.Buffer
		fprintRelation(&wantOut, want, 50)

		d0 = constraint.DecisionCount()
		var out bytes.Buffer
		if err := repl(hurricane.Build(), 50, &session{ec: exec.New(1)}, strings.NewReader(line+"\n"), &out); err != nil {
			t.Fatal(err)
		}
		if got := constraint.DecisionCount() - d0; got != wantDecisions {
			t.Errorf("%s: the shell made %d decisions, RunCtx %d", line, got, wantDecisions)
		}
		if !strings.Contains(out.String(), "cqa> "+wantOut.String()) {
			t.Errorf("%s: the shell printed\n%s\nwant (as -e prints)\n%s", line, out.String(), wantOut.String())
		}
	}
}

func TestREPLSvgCommand(t *testing.T) {
	d := hurricane.Build()
	svgPath := filepath.Join(t.TempDir(), "land.svg")
	in := strings.NewReader(strings.Join([]string{
		`\svg Land ` + svgPath,
		`\svg Landownership ` + svgPath, // not spatial: error message, no crash
		`\svg Missing ` + svgPath,
		`\svg toofewargs`,
		`\quit`,
	}, "\n"))
	var out bytes.Buffer
	if err := repl(d, 10, &session{ec: exec.New(1)}, in, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(svgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Error("svg file malformed")
	}
	got := out.String()
	for _, want := range []string{"wrote " + svgPath, "not a spatial relation", `no relation "Missing"`, "usage:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunParallelAndStatsFlags(t *testing.T) {
	// -par/-stats must not change results or fail; stats go to stdout.
	for _, args := range [][]string{
		{"-demo", "hurricane", "-par", "4", "-stats", "-e",
			"R = join Landownership and Land"},
		{"-demo", "hurricane", "-par", "1", "-e",
			"R = select landId = A from Landownership"},
		{"-demo", "hurricane", "-par", "2", "-stats", "-rules",
			`owned(name, t) :- Landownership(name, t, id), id = "A".`},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunObservabilityFlags(t *testing.T) {
	// -explain, -slowlog and -metrics-addr must not change results or fail.
	for _, args := range [][]string{
		{"-demo", "hurricane", "-explain", "-stats", "-par", "4", "-e",
			"R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from R0\nR2 = project R1 on name"},
		{"-demo", "hurricane", "-explain", "-rules",
			`owned(name, t) :- Landownership(name, t, id), id = "A".`},
		{"-demo", "hurricane", "-slowlog", "1h", "-explain", "-e",
			"R = select landId = A from Landownership"},
		{"-demo", "hurricane", "-metrics-addr", "127.0.0.1:0", "-e",
			"R = select landId = A from Landownership"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunTraceJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := run([]string{"-demo", "hurricane", "-trace-json", path, "-e",
		"R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from R0\nR2 = project R1 on name"}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []obs.SpanJSON
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatalf("trace file not valid JSON: %v", err)
	}
	if len(spans) == 0 || spans[0].Name != "query" {
		t.Fatalf("trace roots = %+v, want a query span", spans)
	}
	var names []string
	var collect func(s obs.SpanJSON)
	collect = func(s obs.SpanJSON) {
		names = append(names, s.Name)
		for _, c := range s.Children {
			collect(c)
		}
	}
	for _, s := range spans {
		collect(s)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"stmt", "join", "select", "project", "normalize"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q span; got %v", want, names)
		}
	}
}

func TestSessionReportExplain(t *testing.T) {
	d := hurricane.Build()
	ec := exec.New(4)
	ec.SeqThreshold = 1
	s := &session{ec: ec, stats: true, explain: true, tracer: obs.NewTracer()}
	ec.Tracer = s.tracer
	if _, err := d.RunCtx("R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from R0\nR2 = project R1 on name", ec); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := s.report(&out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"operator", "query", "└─", "join", "fanout"} {
		if !strings.Contains(got, want) {
			t.Errorf("report output missing %q:\n%s", want, got)
		}
	}
	if len(s.tracer.Roots()) != 0 {
		t.Error("spans not reset after report")
	}
}

func TestREPLStats(t *testing.T) {
	d := hurricane.Build()
	ec := exec.New(4)
	ec.SeqThreshold = 1
	in := strings.NewReader("R0 = join Landownership and Land\n\\quit\n")
	var out bytes.Buffer
	if err := repl(d, 10, &session{ec: ec, stats: true}, in, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"operator", "join", "cache_misses"} {
		if !strings.Contains(got, want) {
			t.Errorf("repl -stats output missing %q:\n%s", want, got)
		}
	}
	if len(ec.Stats()) != 0 {
		t.Error("stats not reset after printing")
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed (run() prints results through package fmt).
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	b, readErr := io.ReadAll(r)
	r.Close()
	if readErr != nil {
		t.Fatal(readErr)
	}
	return string(b), runErr
}

func TestQueryLogNDJSON(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "queries.ndjson")
	args := []string{"-demo", "hurricane", "-e",
		"R0 = join Landownership and Land\nR1 = project R0 on name"}

	plain, err := captureStdout(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	logged, err := captureStdout(t, func() error {
		return run(append([]string{"-query-log", logPath}, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	// The recorder observes; it never changes what is printed.
	if plain != logged {
		t.Fatalf("-query-log changed stdout:\n--- plain ---\n%s\n--- logged ---\n%s", plain, logged)
	}

	b, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 1 {
		t.Fatalf("query log has %d lines, want 1:\n%s", len(lines), b)
	}
	var rec obs.FlightRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, lines[0])
	}
	if !strings.HasPrefix(rec.ID, "q") || rec.Outcome != obs.OutcomeOK || rec.Rows == 0 {
		t.Fatalf("flight record: %+v", rec)
	}
	if rec.Statement != "R0 = join Landownership and Land" {
		t.Fatalf("record statement %q", rec.Statement)
	}
	var strategies []string
	for _, op := range rec.Ops {
		if op.Strategy != "" {
			strategies = append(strategies, op.Strategy)
		}
	}
	if len(strategies) == 0 {
		t.Fatalf("record has no binary operator with a strategy: %+v", rec)
	}
	if rec.CacheHitRate < 0 {
		t.Fatalf("cache hit rate %v with the default cache on", rec.CacheHitRate)
	}

	// A failing program appends an error record (the file is O_APPEND:
	// one process's records follow another's).
	_, err = captureStdout(t, func() error {
		return run([]string{"-demo", "hurricane", "-query-log", logPath, "-e", "R = select from X"})
	})
	if err == nil {
		t.Fatal("bad query accepted")
	}
	b, _ = os.ReadFile(logPath)
	lines = strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 {
		t.Fatalf("query log has %d lines after error, want 2:\n%s", len(lines), b)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != obs.OutcomeError || rec.Error == "" {
		t.Fatalf("error record: %+v", rec)
	}
}

func TestExplainCarriesQueryID(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "queries.ndjson")
	out, err := captureStdout(t, func() error {
		return run([]string{"-demo", "hurricane", "-explain", "-query-log", logPath,
			"-e", "R = select landId = A from Landownership"})
	})
	if err != nil {
		t.Fatal(err)
	}
	// The root span is stamped with the flight-recorder id, so the
	// EXPLAIN tree and the NDJSON record join on it.
	if !strings.Contains(out, "query_id=q") {
		t.Fatalf("explain output missing query_id label:\n%s", out)
	}
	b, _ := os.ReadFile(logPath)
	var rec obs.FlightRecord
	if err := json.Unmarshal([]byte(strings.TrimSpace(string(b))), &rec); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "query_id="+rec.ID) {
		t.Fatalf("explain id and record id differ: record %q, explain:\n%s", rec.ID, out)
	}
}
