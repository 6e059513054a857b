package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a tracer clock advancing a fixed step per call, so
// span wall times (and therefore golden renderings) are deterministic.
func fakeClock(step time.Duration) func() time.Time {
	base := time.Unix(0, 0)
	var mu sync.Mutex
	var n int64
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(time.Duration(n) * step)
	}
}

func TestSpanHierarchyAndCounters(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan("query", "R = ...")
	child := root.StartChild("join", "")
	child.Add("sat", 3)
	child.Add("sat", 2)
	child.Set("out", 7)
	grand := child.StartChild("fanout", "")
	grand.Set("items", 25)
	grand.End()
	child.End()
	root.End()

	roots := tr.Roots()
	if len(roots) != 1 || roots[0] != root {
		t.Fatalf("roots = %v, want [root]", roots)
	}
	if got := child.Counter("sat"); got != 5 {
		t.Errorf("sat counter = %d, want 5 (Add accumulates)", got)
	}
	if got := child.Counter("out"); got != 7 {
		t.Errorf("out counter = %d, want 7", got)
	}
	if got := child.Counter("absent"); got != 0 {
		t.Errorf("absent counter = %d, want 0", got)
	}
	var names []string
	Walk(root, func(sp *Span, depth int) {
		names = append(names, strings.Repeat(">", depth)+sp.Name)
	})
	if got := strings.Join(names, " "); got != "query >join >>fanout" {
		t.Errorf("walk order = %q", got)
	}
	if got := SumCounter(roots, "sat"); got != 5 {
		t.Errorf("SumCounter(sat) = %d, want 5", got)
	}
	if keys := child.CounterKeys(); strings.Join(keys, ",") != "out,sat" {
		t.Errorf("CounterKeys = %v, want sorted [out sat]", keys)
	}

	tr.Reset()
	if len(tr.Roots()) != 0 {
		t.Error("Reset did not clear roots")
	}
}

func TestSpanEndIdempotentAndWall(t *testing.T) {
	tr := NewTracer()
	tr.Clock = fakeClock(time.Millisecond)
	sp := tr.StartSpan("stmt", "") // t=1ms
	sp.End()                       // t=2ms
	w1 := sp.Wall()
	sp.End() // must not re-stamp
	if w2 := sp.Wall(); w1 != time.Millisecond || w2 != w1 {
		t.Errorf("wall = %v then %v, want 1ms both (idempotent End)", w1, w2)
	}
	unended := tr.StartSpan("open", "")
	if unended.Wall() != 0 {
		t.Error("Wall before End must be 0")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("query", "")
	if sp != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
	// Every span method must be a no-op on nil, not a panic.
	child := sp.StartChild("join", "")
	if child != nil {
		t.Fatal("nil span must hand out nil children")
	}
	sp.Add("sat", 1)
	sp.Set("out", 1)
	sp.End()
	if sp.Counter("sat") != 0 || sp.Counters() != nil || sp.CounterKeys() != nil ||
		sp.Children() != nil || sp.Wall() != 0 {
		t.Error("nil span accessors must return zero values")
	}
	if tr.Roots() != nil {
		t.Error("nil tracer Roots must be nil")
	}
	tr.Reset()
	Walk(nil, func(*Span, int) { t.Error("Walk(nil) must not visit") })
	if SumCounter(nil, "sat") != 0 {
		t.Error("SumCounter(nil) must be 0")
	}
}

func TestSpanCountersConcurrent(t *testing.T) {
	tr := NewTracer()
	sp := tr.StartSpan("join", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sp.Add("sat", 1)
			}
		}()
	}
	wg.Wait()
	sp.End()
	if got := sp.Counter("sat"); got != 4000 {
		t.Errorf("lost counter updates: %d, want 4000", got)
	}
}

func TestSlowSpanLogging(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer()
	tr.Clock = fakeClock(10 * time.Millisecond)
	tr.SlowThreshold = 5 * time.Millisecond
	tr.Logger = slog.New(slog.NewTextHandler(&buf, nil))
	sp := tr.StartSpan("join", "R1 x R2")
	sp.Set("sat", 42)
	sp.End() // wall = 10ms >= threshold
	got := buf.String()
	for _, want := range []string{"slow span", "span=join", "sat=42", "R1 x R2"} {
		if !strings.Contains(got, want) {
			t.Errorf("slow log missing %q:\n%s", want, got)
		}
	}

	// Below threshold: silent.
	buf.Reset()
	tr2 := NewTracer()
	tr2.Clock = fakeClock(time.Millisecond)
	tr2.SlowThreshold = 5 * time.Millisecond
	tr2.Logger = slog.New(slog.NewTextHandler(&buf, nil))
	tr2.StartSpan("fast", "").End()
	if buf.Len() != 0 {
		t.Errorf("fast span logged: %s", buf.String())
	}
}

func TestSpanLatencyMetric(t *testing.T) {
	tr := NewTracer()
	tr.Clock = fakeClock(time.Millisecond)
	tr.Metrics = NewRegistry()
	tr.StartSpan("select", "").End()
	tr.StartSpan("select", "").End()
	h := tr.Metrics.HistogramVec("cdb_span_seconds",
		"Span wall time by span name.", "span", DefLatencyBuckets).With("select")
	if h.Count() != 2 {
		t.Errorf("span histogram count = %d, want 2", h.Count())
	}
}

// buildExplainFixture constructs the span forest the golden files pin: a
// query root, a statement, a plan subtree project∘select∘join with the
// operator-recorder spans folded in, and a fanout child under the join.
func buildExplainFixture() *Tracer {
	tr := NewTracer()
	tr.Clock = fakeClock(time.Millisecond)
	query := tr.StartSpan("query", "R = project select ... from join A and B on id, x")
	stmt := query.StartChild("stmt", "R = ...")
	project := stmt.StartChild("project", "id, x")
	sel := project.StartChild("select", "x <= 1500")
	join := sel.StartChild("join", "")
	fanout := join.StartChild("fanout", "")
	fanout.Set("items", 900)
	fanout.Set("workers", 4)
	fanout.Set("queue_ns", 120_000)
	fanout.Set("busy_ns", 3_400_000)
	fanout.Set("maxbusy_ns", 1_100_000)
	fanout.End()
	// The operator recorder's span: same name as the plan node, leaf —
	// FormatTree folds it into the join line.
	joinRec := join.StartChild("join", "")
	(&OpStats{Op: "join", TuplesIn: 60, TuplesOut: 42, SatChecks: 900, PrunedUnsat: 858,
		Parallel: true}).Annotate(joinRec)
	joinRec.End()
	join.End()
	selRec := sel.StartChild("select", "")
	(&OpStats{Op: "select", TuplesIn: 42, TuplesOut: 17, SatChecks: 42, PrunedUnsat: 25,
		CacheHits: 30, CacheMisses: 12, FMDecisions: 12}).Annotate(selRec)
	selRec.End()
	sel.End()
	projRec := project.StartChild("project", "")
	(&OpStats{Op: "project", TuplesIn: 17, TuplesOut: 17}).Annotate(projRec)
	projRec.End()
	project.End()
	stmt.Set("rows", 17)
	stmt.End()
	query.End()
	return tr
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate by writing the GOT block below to %s): %v\nGOT:\n%s", path, err, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch\nGOT:\n%s\nWANT:\n%s", path, got, want)
	}
}

func TestFormatTreeGolden(t *testing.T) {
	tr := buildExplainFixture()
	got := FormatTree(tr.Roots(), TreeOptions{}) // no wall: fully deterministic
	checkGolden(t, "explain.golden", []byte(got))
}

func TestFormatTreeFoldingPreservesTotals(t *testing.T) {
	tr := buildExplainFixture()
	roots := tr.Roots()
	rendered := FormatTree(roots, TreeOptions{})
	// The operator-recorder spans folded away: one line per plan node.
	if n := strings.Count(rendered, "─ join"); n != 1 {
		t.Errorf("join appears %d times, want 1 (recorder span folded):\n%s", n, rendered)
	}
	// ... but their counters survive on the folded line.
	if !strings.Contains(rendered, "sat=900") {
		t.Errorf("folded join line lost its counters:\n%s", rendered)
	}
	// And tree totals are untouched by rendering.
	if got := SumCounter(roots, "sat"); got != 942 {
		t.Errorf("SumCounter(sat) = %d, want 942", got)
	}
}

func TestFormatTreeWallAndDetailTruncation(t *testing.T) {
	tr := NewTracer()
	tr.Clock = fakeClock(time.Millisecond)
	sp := tr.StartSpan("select", strings.Repeat("x", 100))
	sp.End()
	out := FormatTree(tr.Roots(), TreeOptions{Wall: true, MaxDetail: 10})
	if !strings.Contains(out, "wall=1ms") {
		t.Errorf("missing wall time:\n%s", out)
	}
	if !strings.Contains(out, "xxxxxxxxx…") || strings.Contains(out, strings.Repeat("x", 11)) {
		t.Errorf("detail not truncated to 10 runes:\n%s", out)
	}
}

func TestTraceJSON(t *testing.T) {
	tr := buildExplainFixture()
	b, err := TraceJSON(tr.Roots())
	if err != nil {
		t.Fatal(err)
	}
	var spans []SpanJSON
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatalf("TraceJSON output not valid JSON: %v", err)
	}
	if len(spans) != 1 || spans[0].Name != "query" {
		t.Fatalf("root = %+v, want one query span", spans)
	}
	if spans[0].StartNS != 0 {
		t.Errorf("first root start offset = %d, want 0", spans[0].StartNS)
	}
	stmt := spans[0].Children[0]
	if stmt.Name != "stmt" || stmt.Counters["rows"] != 17 {
		t.Errorf("stmt span wrong: %+v", stmt)
	}
	if stmt.StartNS <= 0 {
		t.Errorf("child start offset = %d, want > 0", stmt.StartNS)
	}
	join := stmt.Children[0].Children[0].Children[0]
	if join.Name != "join" || len(join.Children) != 2 {
		t.Errorf("join span wrong (JSON keeps recorder spans unfolded): %+v", join)
	}
}

// TestSpanLabels covers the string-label side of spans: set/get,
// nil-safety, rendering ahead of counters, fold inheritance (the
// operator recorder's strategy label surfaces on the plan-node line,
// without overriding one the plan node set itself), and JSON export.
func TestSpanLabels(t *testing.T) {
	tr := NewTracer()
	join := tr.StartSpan("join", "")
	join.Set("pairs", 12)
	rec := join.StartChild("join", "")
	rec.SetLabel("strategy", "vector")
	rec.Set("sat", 3)
	rec.End()
	join.End()

	if got := rec.Label("strategy"); got != "vector" {
		t.Errorf("Label(strategy) = %q, want vector", got)
	}
	if got := rec.Label("absent"); got != "" {
		t.Errorf("Label(absent) = %q, want empty", got)
	}
	if ls := join.Labels(); ls != nil {
		t.Errorf("plan node has no own labels, got %v", ls)
	}

	out := FormatTree(tr.Roots(), TreeOptions{})
	if !strings.Contains(out, "[strategy=vector sat=3 pairs=12]") {
		t.Errorf("folded line should lead with the strategy label:\n%s", out)
	}

	// A label the plan node set itself survives the fold.
	tr2 := NewTracer()
	d := tr2.StartSpan("difference", "")
	d.SetLabel("strategy", "dense")
	rec2 := d.StartChild("difference", "")
	rec2.SetLabel("strategy", "sweep")
	rec2.End()
	d.End()
	if out := FormatTree(tr2.Roots(), TreeOptions{}); !strings.Contains(out, "strategy=dense") {
		t.Errorf("fold overwrote the parent's own label:\n%s", out)
	}

	b, err := TraceJSON(tr.Roots())
	if err != nil {
		t.Fatal(err)
	}
	var spans []SpanJSON
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	if spans[0].Children[0].Labels["strategy"] != "vector" {
		t.Errorf("TraceJSON lost the label: %+v", spans[0].Children[0])
	}

	var nilSpan *Span
	nilSpan.SetLabel("k", "v")
	if nilSpan.Label("k") != "" || nilSpan.Labels() != nil {
		t.Error("nil span label methods not nil-safe")
	}
}
