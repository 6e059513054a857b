package exec

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cdb/internal/constraint"
	"cdb/internal/obs"
	"cdb/internal/rational"
)

func TestMapCancelsOnError(t *testing.T) {
	c := &Context{Parallelism: 2, SeqThreshold: 1}
	const n = 1000
	var calls atomic.Int64
	_, err := Map(c, n, func(i int, out []int) ([]int, error) {
		calls.Add(1)
		if i == 0 {
			return out, fmt.Errorf("boom at %d", i)
		}
		// Slow enough that the other worker observes the stop flag long
		// before draining all n indices.
		time.Sleep(time.Millisecond)
		return append(out, i), nil
	})
	if err == nil || err.Error() != "boom at 0" {
		t.Fatalf("err = %v, want boom at 0", err)
	}
	if got := calls.Load(); got >= n/2 {
		t.Errorf("fn ran %d/%d times after the error; cancellation did not stop the fan-out", got, n)
	}
}

func TestMapCancelKeepsLowestIndexError(t *testing.T) {
	// Even with cancellation, the reported error must be the one a
	// sequential left-to-right loop would hit first — across many runs so
	// scheduling varies.
	for run := 0; run < 20; run++ {
		c := &Context{Parallelism: 8, SeqThreshold: 1}
		_, err := Map(c, 200, func(i int, out []int) ([]int, error) {
			if i%7 == 3 { // errors at 3, 10, 17, ...
				return out, fmt.Errorf("boom at %d", i)
			}
			return append(out, i), nil
		})
		if err == nil || err.Error() != "boom at 3" {
			t.Fatalf("run %d: err = %v, want boom at 3", run, err)
		}
	}
}

// satConj returns a trivially satisfiable one-atom conjunction (x >= 0)
// whose decision runs the raw eliminator when uncached.
func satConj(t *testing.T) constraint.Conjunction {
	t.Helper()
	con, err := constraint.New(constraint.Var("x"), ">=", constraint.Const(rational.FromInt(0)))
	if err != nil {
		t.Fatal(err)
	}
	return constraint.And(con)
}

func TestFormatStatsFMColumn(t *testing.T) {
	out := FormatStats([]OpStats{
		{Op: "join", TuplesIn: 10, TuplesOut: 3, SatChecks: 25, PrunedUnsat: 22,
			CacheHits: 5, CacheMisses: 20, FMDecisions: 31,
			Wall: 1500 * time.Microsecond, Parallel: true},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header + 1 row:\n%s", len(lines), out)
	}
	header, row := lines[0], lines[1]
	for _, col := range []string{"operator", "cache_hits", "cache_misses", "fm", "wall", "mode"} {
		if !strings.Contains(header, col) {
			t.Errorf("header missing %q: %s", col, header)
		}
	}
	// fm sits between cache_misses and wall, matching the header order.
	fi := strings.Fields(row)
	hi := strings.Fields(header)
	if len(fi) != len(hi) {
		t.Fatalf("row has %d fields, header %d:\n%s", len(fi), len(hi), out)
	}
	for i, h := range hi {
		if h == "fm" && fi[i] != "31" {
			t.Errorf("fm column = %q, want 31:\n%s", fi[i], out)
		}
	}
}

func TestBeginEndSpanNesting(t *testing.T) {
	c := New(1)
	c.Tracer = obs.NewTracer()
	outer := c.BeginSpan("stmt", "R = ...")
	inner := c.BeginSpan("join", "")
	c.EndSpan(inner)
	c.EndSpan(outer)
	sibling := c.BeginSpan("stmt", "S = ...")
	c.EndSpan(sibling)

	roots := c.Tracer.Roots()
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2", len(roots))
	}
	if kids := roots[0].Children(); len(kids) != 1 || kids[0].Name != "join" {
		t.Fatalf("first root children = %v, want [join]", kids)
	}
	if len(roots[1].Children()) != 0 {
		t.Error("sibling statement must not nest under the closed one")
	}
}

func TestBeginSpanNilSafe(t *testing.T) {
	var nilCtx *Context
	sp := nilCtx.BeginSpan("stmt", "")
	if sp != nil {
		t.Fatal("nil context must not trace")
	}
	nilCtx.EndSpan(sp)
	if nilCtx.Tracing() {
		t.Error("nil context reports tracing")
	}
	untraced := New(2)
	if sp := untraced.BeginSpan("stmt", ""); sp != nil {
		t.Fatal("context without tracer must not trace")
	}
}

func TestOpRecorderDepositsSpanCounters(t *testing.T) {
	c := New(1)
	c.Tracer = obs.NewTracer()
	plan := c.BeginSpan("select", "x >= 0")
	rec := c.StartOp("select", 10)
	rec.SatCheck(true)
	rec.SatCheck(false)
	rec.AddOut(1)
	rec.Done(false)
	c.EndSpan(plan)

	roots := c.Tracer.Roots()
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	kids := roots[0].Children()
	if len(kids) != 1 || kids[0].Name != "select" {
		t.Fatalf("recorder span missing under the plan span: %v", kids)
	}
	sp := kids[0]
	if sp.Counters()["in"] != 10 || sp.Counters()["out"] != 1 ||
		sp.Counters()["sat"] != 2 || sp.Counters()["pruned"] != 1 {
		t.Errorf("span counters wrong: %v", sp.Counters())
	}
	// Zero counters are omitted, and the -stats record carries the same
	// numbers — the two views agree.
	if _, ok := sp.Counters()["cache_hits"]; ok {
		t.Error("zero cache_hits counter should be omitted from the span")
	}
	s := c.Stats()[0]
	if s.SatChecks != sp.Counters()["sat"] || s.TuplesOut != sp.Counters()["out"] {
		t.Errorf("stats record %+v disagrees with span %v", s, sp.Counters())
	}
}

func TestMapFanoutSpan(t *testing.T) {
	c := &Context{Parallelism: 4, SeqThreshold: 1}
	c.Tracer = obs.NewTracer()
	op := c.BeginSpan("join", "")
	const n = 100
	if _, err := Map(c, n, func(i int, out []int) ([]int, error) { return append(out, i), nil }); err != nil {
		t.Fatal(err)
	}
	c.EndSpan(op)

	kids := c.Tracer.Roots()[0].Children()
	if len(kids) != 1 || kids[0].Name != "fanout" {
		t.Fatalf("fanout span missing: %v", kids)
	}
	f := kids[0]
	if f.Counters()["items"] != n {
		t.Errorf("items = %d, want %d", f.Counters()["items"], n)
	}
	if w := f.Counters()["workers"]; w < 1 || w > 4 {
		t.Errorf("workers = %d, want 1..4", w)
	}
	if f.Counters()["busy_ns"] < f.Counters()["maxbusy_ns"] {
		t.Errorf("summed busy %d < max busy %d", f.Counters()["busy_ns"], f.Counters()["maxbusy_ns"])
	}
	if f.Wall() <= 0 {
		t.Error("fanout span not ended")
	}
}

func TestMapNoFanoutSpanWhenUntraced(t *testing.T) {
	// Without a tracer (or without an open span) Map must not allocate
	// any span machinery — and produce identical results.
	c := &Context{Parallelism: 4, SeqThreshold: 1}
	out, err := Map(c, 50, func(i int, out []int) ([]int, error) { return append(out, i*2), nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	c.Tracer = obs.NewTracer() // tracer present but no open span
	if _, err := Map(c, 50, func(i int, out []int) ([]int, error) { return append(out, i), nil }); err != nil {
		t.Fatal(err)
	}
	if roots := c.Tracer.Roots(); len(roots) != 0 {
		t.Errorf("Map opened %d root spans without an enclosing operator span", len(roots))
	}
}

// TestMetricsFoldOpFamilies: a Context with Metrics set directly — what
// every server session does — folds each finished operator record into
// the cdb_op_* families, and registers nothing process-level (the
// Fourier-Motzkin and sat-cache families live in server.installMetrics).
func TestMetricsFoldOpFamilies(t *testing.T) {
	c := New(1)
	c.SatCache = constraint.NewSatCache(64)
	reg := obs.NewRegistry()
	c.Metrics = reg
	rec := c.StartOp("select", 3)
	rec.Satisfiable(satConj(t))
	rec.AddOut(1)
	rec.Done(false)

	var exposition strings.Builder
	if err := reg.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cdb_fm_decisions_total", "cdb_satcache_misses_total"} {
		if strings.Contains(exposition.String(), name) {
			t.Errorf("a context registered the process-level family %s", name)
		}
	}
	if got := reg.CounterVec("cdb_op_sat_total", "", "op").With("select").Value(); got != 1 {
		t.Errorf("op sat-check metric = %d, want 1", got)
	}
	if got := reg.CounterVec("cdb_op_out_total", "", "op").With("select").Value(); got != 1 {
		t.Errorf("op out metric = %d, want 1", got)
	}
	if got := reg.HistogramVec("cdb_op_seconds", "", "op", nil).With("select").Count(); got != 1 {
		t.Errorf("op latency histogram holds %d observations, want 1", got)
	}
}
