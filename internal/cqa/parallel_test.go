package cqa

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/datagen"
	"cdb/internal/exec"
	"cdb/internal/rational"
	"cdb/internal/relation"
)

// dump renders a relation's tuples in storage order (not sorted), so two
// equal dumps mean byte-identical output including tuple order — the
// determinism guarantee of the parallel execution layer.
func dump(r *relation.Relation) string {
	var b strings.Builder
	b.WriteString(r.Schema().String())
	for _, t := range r.Tuples() {
		b.WriteString("\n")
		b.WriteString(t.String())
	}
	return b.String()
}

// revalidate re-runs relation.Relation.Add's checks on every tuple of r
// against r's schema. The operators build their output with
// relation.FromValid, which checks nothing per tuple; the equivalence
// matrices run this on every operator output to back that.
func revalidate(t *testing.T, what string, r *relation.Relation) {
	t.Helper()
	fresh := relation.New(r.Schema())
	for _, tu := range r.Tuples() {
		if err := fresh.Add(tu); err != nil {
			t.Fatalf("%s: output tuple %s is not valid for %s: %v", what, tu, r.Schema(), err)
		}
	}
}

// parContexts returns the execution contexts the equivalence tests
// exercise: parallelism 1, 4 and GOMAXPROCS, each with SeqThreshold 1 so
// even small inputs actually reach the worker pool.
func parContexts() map[string]*exec.Context {
	return map[string]*exec.Context{
		"par1":       {Parallelism: 1, SeqThreshold: 1},
		"par4":       {Parallelism: 4, SeqThreshold: 1},
		"gomaxprocs": {Parallelism: runtime.GOMAXPROCS(0), SeqThreshold: 1},
	}
}

func parInputs(t *testing.T, seed int64, n1, n2, idMod int) (*relation.Relation, *relation.Relation) {
	t.Helper()
	p := datagen.Scaled(10)
	p.Seed = seed
	r1 := datagen.BoxRelation(p, n1, idMod)
	p.Seed = seed + 1000
	r2 := datagen.BoxRelation(p, n2, idMod)
	if r1.Len() != n1 || r2.Len() != n2 {
		t.Fatalf("bad fixture sizes: %d, %d", r1.Len(), r2.Len())
	}
	return r1, r2
}

// TestParallelEquivalence asserts that every parallelised operator
// produces byte-identical output (same tuples, same order) at parallelism
// 1, 4 and GOMAXPROCS as the sequential path, on randomized workload
// relations.
func TestParallelEquivalence(t *testing.T) {
	cond := Condition{
		AttrCmpConst("x", OpLe, rational.FromInt(1500)),
		AttrCmpConst("y", OpNe, rational.FromInt(700)), // != splits tuples
		StrNe("id", "b3"),
	}
	for _, seed := range []int64{1, 42, 2003} {
		r1, r2 := parInputs(t, seed, 48, 40, 5)
		ops := map[string]func(*exec.Context) (*relation.Relation, error){
			"select":     func(ec *exec.Context) (*relation.Relation, error) { return Select(ec, r1, cond) },
			"project":    func(ec *exec.Context) (*relation.Relation, error) { return Project(ec, r1, "id", "x") },
			"join":       func(ec *exec.Context) (*relation.Relation, error) { return Join(ec, r1, r2) },
			"intersect":  func(ec *exec.Context) (*relation.Relation, error) { return Intersect(ec, r1, r2) },
			"difference": func(ec *exec.Context) (*relation.Relation, error) { return Difference(ec, r1, r2) },
		}
		for name, op := range ops {
			want, err := op(nil) // sequential baseline
			if err != nil {
				t.Fatalf("seed %d %s sequential: %v", seed, name, err)
			}
			wantDump := dump(want)
			for ctxName, ec := range parContexts() {
				got, err := op(ec)
				if err != nil {
					t.Fatalf("seed %d %s %s: %v", seed, name, ctxName, err)
				}
				revalidate(t, name, got)
				if d := dump(got); d != wantDump {
					t.Errorf("seed %d: %s at %s diverges from sequential output\nsequential:\n%s\nparallel:\n%s",
						seed, name, ctxName, wantDump, d)
				}
			}
		}
	}
}

// TestParallelEquivalenceCrossProduct exercises the join path with no
// shared relational attributes (every tuple pair reaches the
// satisfiability check).
func TestParallelEquivalenceCrossProduct(t *testing.T) {
	r1, r2 := parInputs(t, 7, 30, 30, 0)
	r2b, err := Rename(nil, r2, map[string]string{"id": "id2"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Join(nil, r1, r2b)
	if err != nil {
		t.Fatal(err)
	}
	for ctxName, ec := range parContexts() {
		got, err := Join(ec, r1, r2b)
		if err != nil {
			t.Fatalf("%s: %v", ctxName, err)
		}
		revalidate(t, "cross-product join "+ctxName, got)
		if dump(got) != dump(want) {
			t.Errorf("cross-product join at %s diverges from sequential output", ctxName)
		}
	}
}

// TestParallelEquivalenceEmpty checks the empty-input edge cases.
func TestParallelEquivalenceEmpty(t *testing.T) {
	r1, _ := parInputs(t, 5, 20, 1, 0)
	empty := relation.New(r1.Schema())
	ec := &exec.Context{Parallelism: 4, SeqThreshold: 1}
	for name, pair := range map[string][2]*relation.Relation{
		"left-empty":  {empty, r1},
		"right-empty": {r1, empty},
		"both-empty":  {empty, empty},
	} {
		want, err := Join(nil, pair[0], pair[1])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := Join(ec, pair[0], pair[1])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if dump(got) != dump(want) {
			t.Errorf("%s: parallel join diverges", name)
		}
		wantD, err := Difference(nil, pair[0], pair[1])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gotD, err := Difference(ec, pair[0], pair[1])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if dump(gotD) != dump(wantD) {
			t.Errorf("%s: parallel difference diverges", name)
		}
	}
}

// TestOperatorStats checks the per-operator statistics recorded on the
// execution context.
func TestOperatorStats(t *testing.T) {
	r1, r2 := parInputs(t, 11, 30, 30, 0)
	r2b, err := Rename(nil, r2, map[string]string{"id": "id2"})
	if err != nil {
		t.Fatal(err)
	}
	ec := &exec.Context{Parallelism: 4, SeqThreshold: 1}
	out, err := Join(ec, r1, r2b)
	if err != nil {
		t.Fatal(err)
	}
	stats := ec.Stats()
	// Rename (from the fixture) is not on ec; only the join records.
	if len(stats) != 1 {
		t.Fatalf("got %d stat records, want 1: %+v", len(stats), stats)
	}
	s := stats[0]
	if s.Op != "join" {
		t.Fatalf("op = %q, want join", s.Op)
	}
	if s.TuplesIn != int64(r1.Len()+r2b.Len()) {
		t.Errorf("TuplesIn = %d, want %d", s.TuplesIn, r1.Len()+r2b.Len())
	}
	if s.TuplesOut != int64(out.Len()) {
		t.Errorf("TuplesOut = %d, want %d", s.TuplesOut, out.Len())
	}
	// No shared relational attributes: the filter considers every pair,
	// and each pair is either envelope-pruned or decided — through the sat
	// oracle, by clipping or on the envelopes.
	if want := int64(r1.Len() * r2b.Len()); s.PairsTotal != want {
		t.Errorf("PairsTotal = %d, want %d", s.PairsTotal, want)
	}
	if want := s.PairsTotal - s.PairsPruned; s.SatChecks+s.VectorHits+s.EnvHits != want {
		t.Errorf("SatChecks+VectorHits+EnvHits = %d+%d+%d, want PairsTotal-PairsPruned = %d",
			s.SatChecks, s.VectorHits, s.EnvHits, want)
	}
	// pruned = filter rejects + unsatisfiable sat decisions, so every
	// candidate not in the output is accounted for exactly once.
	if s.PrunedUnsat != s.PairsTotal-s.TuplesOut {
		t.Errorf("PrunedUnsat = %d, want PairsTotal-TuplesOut = %d",
			s.PrunedUnsat, s.PairsTotal-s.TuplesOut)
	}
	if !s.Parallel {
		t.Error("join over 900 pairs at threshold 1 should report Parallel")
	}

	// With the filter off, the dense loop checks every pair.
	ecDense := &exec.Context{Parallelism: 4, SeqThreshold: 1, NoPrune: true}
	if _, err := Join(ecDense, r1, r2b); err != nil {
		t.Fatal(err)
	}
	d := ecDense.Stats()[0]
	if want := int64(r1.Len() * r2b.Len()); d.SatChecks != want {
		t.Errorf("dense SatChecks = %d, want %d", d.SatChecks, want)
	}
	if d.PairsTotal != d.SatChecks || d.PairsPruned != 0 {
		t.Errorf("dense PairsTotal/PairsPruned = %d/%d, want %d/0",
			d.PairsTotal, d.PairsPruned, d.SatChecks)
	}
	if d.PrunedUnsat != d.SatChecks-d.TuplesOut {
		t.Errorf("dense PrunedUnsat = %d, want SatChecks-TuplesOut = %d",
			d.PrunedUnsat, d.SatChecks-d.TuplesOut)
	}

	// Threshold fallback: same join with a huge threshold stays sequential.
	ec2 := &exec.Context{Parallelism: 4, SeqThreshold: 1 << 20}
	if _, err := Join(ec2, r1, r2b); err != nil {
		t.Fatal(err)
	}
	if ec2.Stats()[0].Parallel {
		t.Error("join below SeqThreshold must not report Parallel")
	}
}

// TestFMDecisionsPerRecorder: an operator row's fm is what that operator
// sent to the eliminator, whatever other sessions run beside it. Two
// contexts — one without a cache, one whose cache is emptied before every
// run, so that each decision is a miss — run an FM-decided join in a loop
// at the same time; every row must read what the same join reads run alone.
// (fm used to be the delta of the process-wide decision count, so
// concurrent rows counted each other's.)
func TestFMDecisionsPerRecorder(t *testing.T) {
	// One tight cluster of large boxes: most pairs survive the filter.
	p := datagen.Paper()
	p.SizeMin = 50
	r1 := datagen.ClusteredBoxRelation(p, 16, 1, 10, 77)
	p.Seed += 1000
	r2 := datagen.ClusteredBoxRelation(p, 16, 1, 10, 77)
	join := func(ec *exec.Context, cached bool) {
		if cached {
			ec.SatCache = constraint.NewSatCache(0)
		}
		if _, err := Join(ec, r1, r2); err != nil {
			t.Error(err)
		}
	}
	newCtx := func() *exec.Context { return &exec.Context{Parallelism: 1, PlanMode: exec.PlanDense} }
	var alone [2]int64
	for i := range alone {
		ec := newCtx()
		join(ec, i == 1)
		s := ec.Stats()[0]
		if alone[i] = s.FMDecisions; alone[i] == 0 || alone[i] != s.SatChecks {
			t.Fatalf("context %d alone: fm = %d, sat-checks = %d; every decision of the fixture must reach the eliminator",
				i, alone[i], s.SatChecks)
		}
	}
	var wg sync.WaitGroup
	for i := range alone {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ec := newCtx()
			for run := 0; run < 20; run++ {
				join(ec, i == 1)
			}
			for run, s := range ec.Stats() {
				if s.FMDecisions != alone[i] {
					t.Errorf("context %d run %d: fm = %d beside another session, %d alone", i, run, s.FMDecisions, alone[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEvalCtxThreadsContext checks that plan evaluation hands the context
// down to every operator in the tree.
func TestEvalCtxThreadsContext(t *testing.T) {
	r1, r2 := parInputs(t, 13, 20, 20, 5)
	env := EnvOf(map[string]*relation.Relation{"R1": r1, "R2": r2})
	plan := NewProject(NewSelect(NewJoin(Scan("R1"), Scan("R2")),
		Condition{AttrCmpConst("x", OpLe, rational.FromInt(2000))}), "id", "x")
	ec := &exec.Context{Parallelism: 4, SeqThreshold: 1}
	got, err := plan.EvalCtx(env, ec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.EvalCtx(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dump(got) != dump(want) {
		t.Error("EvalCtx output diverges from Eval")
	}
	var ops []string
	for _, s := range ec.Stats() {
		ops = append(ops, s.Op)
	}
	if strings.Join(ops, ",") != "join,select,project" {
		t.Errorf("recorded ops = %v, want [join select project]", ops)
	}
}
