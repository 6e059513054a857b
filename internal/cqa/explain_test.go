package cqa

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/datagen"
	"cdb/internal/exec"
	"cdb/internal/obs"
	"cdb/internal/rational"
)

// composedPlan is project ∘ select ∘ join over two box relations.
func composedPlan(t *testing.T) (Env, Node) {
	r1, r2 := parInputs(t, 13, 20, 20, 5)
	return Env{"R1": r1, "R2": r2}, NewProject(NewSelect(NewJoin(Scan("R1"), Scan("R2")),
		Condition{AttrCmpConst("x", OpLe, rational.FromInt(2000))}), "id", "x")
}

// TestExplainSpanTotalsMatchStats is the acceptance check of the
// observability layer, generated from the counter table: for every row of
// obs.OpCounters, the EXPLAIN span total, the Σ of the -stats records
// (ec.Stats), the /metrics delta and the Σ over a flight record's ops are
// one number. The fixtures between them make every counter non-zero: a
// composed plan on the dense reference path, run twice against one
// sat-cache (sat, fm, cache_hits, cache_misses), a box join under auto
// (env, pairs_pruned) and a polygon difference under forced vector, with
// half-open strips among the tuples (vec, vec_fallback, float_rej).
func TestExplainSpanTotalsMatchStats(t *testing.T) {
	env, plan := composedPlan(t)
	boxes := datagen.Canonical(datagen.BoxRelation(datagen.Scaled(4), 24, 4))
	rng := rand.New(rand.NewSource(5))
	minuend, subtrahend := datagen.RandomPolygonRelation(rng, 24), datagen.RandomPolygonRelation(rng, 24)
	fixtures := []struct {
		name    string
		mode    string
		noPrune bool
		run     func(ec *exec.Context) error
	}{
		{"plan", exec.PlanDense, true, func(ec *exec.Context) error {
			for i := 0; i < 2; i++ {
				if _, err := plan.EvalCtx(env, ec); err != nil {
					return err
				}
			}
			return nil
		}},
		{"box join", exec.PlanAuto, false, func(ec *exec.Context) error {
			_, err := JoinCtx(ec, boxes, boxes)
			return err
		}},
		{"polygon difference", exec.PlanVector, false, func(ec *exec.Context) error {
			_, err := DifferenceCtx(ec, minuend, subtrahend)
			return err
		}},
	}
	reg := obs.NewRegistry()
	metricTotals := func() map[string]int64 {
		totals := map[string]int64{}
		snap := reg.Snapshot()
		for _, c := range obs.OpCounters {
			series, _ := snap["cdb_op_"+c.Name+"_total"].(map[string]any)
			for _, v := range series {
				totals[c.Name] += v.(int64)
			}
		}
		return totals
	}
	nonZero := map[string]bool{}
	for _, f := range fixtures {
		ec := &exec.Context{Parallelism: 4, SeqThreshold: 1, PlanMode: f.mode, NoPrune: f.noPrune,
			SatCache: constraint.NewSatCache(1024), Tracer: obs.NewTracer(), Metrics: reg}
		before := metricTotals()
		if err := f.run(ec); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		after := metricTotals()
		stats := ec.Stats()
		b, err := json.Marshal(obs.FlightRecord{Ops: stats})
		if err != nil {
			t.Fatal(err)
		}
		var rec struct {
			Ops []map[string]any `json:"ops"`
		}
		if err := json.Unmarshal(b, &rec); err != nil {
			t.Fatal(err)
		}
		roots := ec.Tracer.Roots()
		for _, c := range obs.OpCounters {
			var want, flight int64
			for i := range stats {
				want += *c.Field(&stats[i])
			}
			for _, op := range rec.Ops {
				v, _ := op[c.Name].(float64)
				flight += int64(v)
			}
			span, metric := obs.SumCounter(roots, c.Name), after[c.Name]-before[c.Name]
			if span != want || metric != want || flight != want {
				t.Errorf("%s: %s: span total %d, metrics delta %d, flight ops %d; stats %d",
					f.name, c.Name, span, metric, flight, want)
			}
			if want != 0 {
				nonZero[c.Name] = true
			}
		}
	}
	for _, c := range obs.OpCounters {
		if !nonZero[c.Name] {
			t.Errorf("no fixture makes %s non-zero; its comparison is vacuous", c.Name)
		}
	}
}

// TestExplainTreeFoldsOperators: the rendered tree shows the plan shape,
// each operator's span folded onto its plan node's line.
func TestExplainTreeFoldsOperators(t *testing.T) {
	env, plan := composedPlan(t)
	ec := &exec.Context{Parallelism: 4, SeqThreshold: 1, NoPrune: true, Tracer: obs.NewTracer()}
	if _, err := plan.EvalCtx(env, ec); err != nil {
		t.Fatal(err)
	}
	roots := ec.Tracer.Roots()
	if len(roots) != 1 {
		t.Fatalf("got %d root spans, want 1 (the outermost plan node)", len(roots))
	}
	rendered := obs.FormatTree(roots, obs.TreeOptions{})
	for _, want := range []string{"project", "select", "join", "scan R1", "scan R2", "fanout"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("EXPLAIN tree missing %q:\n%s", want, rendered)
		}
	}
	for _, name := range []string{"project", "select", "join"} {
		if n := strings.Count(rendered, "─ "+name); n > 1 {
			t.Errorf("%q rendered %d times; operator span not folded into its plan node:\n%s",
				name, n, rendered)
		}
	}
}

// TestTracingDoesNotChangeOutput pins the tentpole's no-interference
// contract: with tracing and metrics on, operator output is
// byte-identical (same tuples, same order) to the untraced run.
func TestTracingDoesNotChangeOutput(t *testing.T) {
	r1, r2 := parInputs(t, 17, 30, 30, 5)
	env := Env{"R1": r1, "R2": r2}
	plan := NewProject(NewSelect(NewJoin(Scan("R1"), Scan("R2")),
		Condition{AttrCmpConst("x", OpLe, rational.FromInt(2000)),
			AttrCmpConst("y", OpNe, rational.FromInt(700))}), "id", "x")

	plain := &exec.Context{Parallelism: 4, SeqThreshold: 1}
	want, err := plan.EvalCtx(env, plain)
	if err != nil {
		t.Fatal(err)
	}

	traced := &exec.Context{Parallelism: 4, SeqThreshold: 1}
	traced.Tracer = obs.NewTracer()
	traced.InstallMetrics(obs.NewRegistry())
	got, err := plan.EvalCtx(env, traced)
	if err != nil {
		t.Fatal(err)
	}
	if dump(got) != dump(want) {
		t.Errorf("tracing changed operator output\nuntraced:\n%s\ntraced:\n%s",
			dump(want), dump(got))
	}
	if len(traced.Tracer.Roots()) == 0 {
		t.Error("traced run collected no spans")
	}
}
