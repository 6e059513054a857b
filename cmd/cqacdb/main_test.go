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
	// Plan modes are not user surface: -plan is an unknown flag. Neither
	// are process-level sinks, which cqacdbd serves: -metrics-addr,
	// -slowlog and -query-log.
	for _, flags := range [][]string{
		{"-plan", "dense"},
		{"-metrics-addr", "127.0.0.1:0"},
		{"-slowlog", "1ms"},
		{"-query-log", filepath.Join(t.TempDir(), "q.ndjson")},
	} {
		args := append(append([]string{"-demo", "hurricane"}, flags...), "-e", "R = select x >= 1 from Land")
		if err := run(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an unknown-flag error", flags[0], err)
		}
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
// exactly the Fourier-Motzkin decisions Database.Run makes.
func TestREPLLineIsRunCtx(t *testing.T) {
	for _, line := range []string{
		`R0 = select x + y >= 0 from Land`,
		`R0 = join Landownership and Land`,
		`R0 = join Hurricane and Land`,
	} {
		d0 := constraint.DecisionCount()
		want, err := hurricane.Build().Run(line, exec.New(1))
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
			t.Errorf("%s: the shell made %d decisions, Database.Run %d", line, got, wantDecisions)
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

// TestRunObservabilityFlags: tracing changes what is reported, never
// what is computed. Under -stats -explain -trace-json the run prints the
// plain run's output unchanged, then the reports after it.
func TestRunObservabilityFlags(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	for _, prog := range [][]string{
		{"-par", "4", "-e", "R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from R0\nR2 = project R1 on name"},
		{"-rules", `owned(name, t) :- Landownership(name, t, id), id = "A".`},
		{"-e", "R = select landId = A from Landownership"},
	} {
		args := append([]string{"-demo", "hurricane"}, prog...)
		plain, err := captureStdout(t, func() error { return run(args) })
		if err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		traced, err := captureStdout(t, func() error {
			return run(append([]string{"-stats", "-explain", "-trace-json", tracePath}, args...))
		})
		if err != nil {
			t.Fatalf("run(%v) traced: %v", args, err)
		}
		if !strings.HasPrefix(traced, plain) {
			t.Errorf("%v: tracing changed the result rows:\n--- plain ---\n%s\n--- traced ---\n%s", prog, plain, traced)
		}
		for _, want := range []string{"operator", "└─"} {
			if !strings.Contains(traced[len(plain):], want) {
				t.Errorf("%v: reports missing %q:\n%s", prog, want, traced)
			}
		}
		b, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		var spans []obs.SpanJSON
		if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%v: trace file: %v\n%s", prog, err, b)
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
	if _, err := d.Run("R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from R0\nR2 = project R1 on name", ec); err != nil {
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
