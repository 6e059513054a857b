package cqa

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/exec"
	"cdb/internal/obs"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

var update = flag.Bool("update", false, "rewrite golden files")

// planModes are the decider sets the equivalence matrices run: forced
// dense (no fast decider: the reference) and auto (env, then clip).
// Whatever a fast decider answers must come out the same as the
// eliminator's answer under dense.
var planModes = []string{exec.PlanDense, exec.PlanAuto}

// irrSettings are the constraint.ForceIrrClear states the equivalence
// matrices run every plan mode under: the planar rule's irredundant memo
// kept, and forced clear, so that every simplification proves its
// conjunction again. The outputs the matrices compare are also normalised,
// where the memo is read.
var irrSettings = []bool{false, true}

// withIrrClear runs body with constraint.ForceIrrClear set to irrClear.
func withIrrClear(irrClear bool, body func()) {
	defer constraint.ForceIrrClear(false)
	constraint.ForceIrrClear(irrClear)
	body()
}

// dumpNormalised is dump of r and of r normalised.
func dumpNormalised(r *relation.Relation) string {
	return dump(r) + "\nnormalised:\n" + dump(r.Normalize())
}

// sumStats adds up the decision counters of every operator row on ec.
func sumStats(ec *exec.Context) (s exec.OpStats) {
	for _, o := range ec.Stats() {
		s.PairsTotal += o.PairsTotal
		s.PairsPruned += o.PairsPruned
		s.SatChecks += o.SatChecks
		s.FMDecisions += o.FMDecisions
		s.EnvHits += o.EnvHits
		s.VectorHits += o.VectorHits
	}
	return s
}

// TestStrategyEquivalence is the refine stage's acceptance contract:
// both plan modes — forced dense and auto — produce
// byte-identical output (same tuples, same order) on every binary operator
// and workload shape, both sequentially and under the worker pool, with
// the irredundant memo kept and forced clear. It also checks that the fast
// deciders really ran under auto: the polygon rows are clipped, and join
// and intersect of the canonical box rows are decided on the envelopes
// alone.
func TestStrategyEquivalence(t *testing.T) {
	ops := map[string]func(ec *exec.Context, r1, r2 *relation.Relation) (*relation.Relation, error){
		"join":       JoinCtx,
		"intersect":  IntersectCtx,
		"difference": DifferenceCtx,
	}
	for wName, pair := range pruneInputs(t) {
		for opName, op := range ops {
			for _, par := range []int{1, 4} {
				run := func(mode string) (string, exec.OpStats) {
					ec := &exec.Context{Parallelism: par, SeqThreshold: 1, PlanMode: mode}
					got, err := op(ec, pair[0], pair[1])
					if err != nil {
						t.Fatalf("%s %s par%d %s: %v", wName, opName, par, mode, err)
					}
					revalidate(t, wName+" "+opName+" "+mode, got)
					return dumpNormalised(got), sumStats(ec)
				}
				want, _ := run(exec.PlanDense)
				for _, mode := range planModes {
					for _, irrClear := range irrSettings {
						withIrrClear(irrClear, func() {
							got, s := run(mode)
							if got != want {
								t.Errorf("%s %s par%d irrClear=%v: plan=%s output diverges from dense\ndense:\n%s\n%s:\n%s",
									wName, opName, par, irrClear, mode, want, mode, got)
							}
							if irrClear || mode == exec.PlanDense {
								return
							}
							cands := s.PairsTotal - s.PairsPruned
							switch {
							case polygonInputs[wName]:
								if s.VectorHits == 0 {
									t.Errorf("%s %s par%d %s: no vector hit — the row fell back to FM", wName, opName, par, mode)
								}
							case boxInputs[wName] && opName != "difference":
								if s.EnvHits != cands || s.VectorHits != 0 || s.SatChecks != 0 || s.FMDecisions != 0 {
									t.Errorf("%s %s par%d auto: env=%d vec=%d sat=%d fm=%d over %d candidate pairs, want all of them decided on the envelopes",
										wName, opName, par, s.EnvHits, s.VectorHits, s.SatChecks, s.FMDecisions, cands)
								}
							}
						})
					}
				}
			}
		}
	}
}

// withW is r with a relational rational attribute w: bound to i mod 5 on
// tuple i, and NULL on every third tuple.
func withW(t *testing.T, r *relation.Relation) *relation.Relation {
	t.Helper()
	attrs := append([]schema.Attribute{schema.Rel("w", schema.Rational)}, r.Schema().Attrs()...)
	out := relation.New(schema.MustNew(attrs...))
	for i, tu := range r.Tuples() {
		rvals := tu.RVals()
		if i%3 != 0 {
			rvals["w"] = relation.Int(int64(i % 5))
		}
		if err := out.Add(relation.NewTuple(rvals, tu.Constraint())); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// selectCase is one selection of the select legs: a condition and the
// relation it runs on.
type selectCase struct {
	r    *relation.Relation
	cond Condition
	// oneDecider: on a box row under auto every value-pass survivor is one
	// pair decided on the envelopes, on a polygon row one pair clipped.
	oneDecider bool
}

// selectCases are the selections the select legs run on r, one of a
// pruneInputs row: a two-sided window around r's middle tuple; that window
// behind a string equality, and beside a != inside it; a value atom and a
// constraint atom over withW's relational rational w, NULL-bound tuples
// included; and a window no point satisfies. A row without id runs no
// string atom.
func selectCases(t *testing.T, r *relation.Relation) map[string]selectCase {
	t.Helper()
	mid := r.Tuples()[r.Len()/2].Constraint()
	ix, _ := mid.Eliminate("y").Canon().Envelope().Interval("x") // a polygon's shadow
	iy, _ := mid.Eliminate("x").Canon().Envelope().Interval("y")
	margin := rational.FromInt(300)
	lox, hix := ix.Lower.Sub(margin), ix.Upper.Add(margin)
	loy, hiy := iy.Lower.Sub(margin), iy.Upper.Add(margin)
	window := Condition{AttrCmpConst("x", OpGe, lox), AttrCmpConst("x", OpLe, hix),
		AttrCmpConst("y", OpGe, loy), AttrCmpConst("y", OpLe, hiy)}
	id := "none" // the first id bound from the middle tuple on
	for i := range r.Len() {
		if v, ok := r.Tuples()[(r.Len()/2+i)%r.Len()].RVal("id"); ok {
			id, _ = v.AsString()
			break
		}
	}
	with := func(atoms ...Atom) Condition { return append(append(Condition{}, atoms...), window...) }
	cases := map[string]selectCase{
		"window":        {r, window, true},
		"string+window": {r, with(StrEq("id", id)), true},
		"ne+window":     {r, with(AttrCmpConst("y", OpNe, iy.Lower)), false},
		"relational": {withW(t, r), Condition{AttrCmpConst("w", OpGe, rational.FromInt(2)),
			Linear(constraint.Var("x"), OpLe, constraint.Var("w").Scale(rational.FromInt(1000))),
			AttrCmpConst("y", OpGe, loy), AttrCmpConst("y", OpLe, hiy)}, true},
		"contradictory": {r, Condition{AttrCmpConst("x", OpGe, hix), AttrCmpConst("x", OpLe, lox)}, false},
	}
	for name, c := range cases {
		if c.cond.Validate(c.r.Schema()) != nil {
			delete(cases, name) // a string atom on a row without id
		}
	}
	return cases
}

// TestSelectEquivalence is the select leg of TestStrategyEquivalence:
// every selectCases selection on the left relation of every pruneInputs row
// prints the same bytes as the unfiltered reference (forced dense and
// NoPrune: no envelope compared, every survivor decided by the cache and
// the eliminator) under every plan mode, with the irredundant memo kept and
// forced clear, sequentially and under the worker pool. Under auto with the
// memo kept it also checks that one decider took each survivor of the
// value pass and the envelopes: the envelopes on the canonical box rows,
// clipping on the polygon rows.
func TestSelectEquivalence(t *testing.T) {
	for wName, pair := range pruneInputs(t) {
		for cName, c := range selectCases(t, pair[0]) {
			sel := splitCondition(c.cond, c.r.Schema())
			// The value pass's survivors that refine does not drop on the
			// envelopes (a box never is; a polygon's envelope is exact).
			var survivors int64
			for _, tu := range c.r.Tuples() {
				if con := tu.Constraint(); sel.keeps(tu) &&
					(sel.bound || con.IsBox() || !con.Envelope().Disjoint(sel.con.Envelope(), sel.con.Vars())) {
					survivors++
				}
			}
			for _, par := range []int{1, 4} {
				run := func(mode string, noPrune bool) (string, exec.OpStats) {
					ec := &exec.Context{Parallelism: par, SeqThreshold: 1, PlanMode: mode, NoPrune: noPrune}
					got, err := SelectCtx(ec, c.r, c.cond)
					if err != nil {
						t.Fatalf("%s %s par%d %s: %v", wName, cName, par, mode, err)
					}
					return dumpNormalised(got), sumStats(ec)
				}
				want, _ := run(exec.PlanDense, true)
				for _, mode := range planModes {
					for _, irrClear := range irrSettings {
						withIrrClear(irrClear, func() {
							got, s := run(mode, false)
							if got != want {
								t.Errorf("%s %s par%d irrClear=%v: plan=%s output diverges from the unfiltered reference\nreference:\n%s\n%s:\n%s",
									wName, cName, par, irrClear, mode, want, mode, got)
							}
							if mode != exec.PlanAuto || irrClear || !c.oneDecider {
								return
							}
							switch {
							case boxInputs[wName]:
								if s.EnvHits != survivors || s.VectorHits != 0 || s.SatChecks != 0 || s.FMDecisions != 0 {
									t.Errorf("%s %s par%d auto: env=%d vec=%d sat=%d fm=%d over %d survivors, want each decided on the envelopes",
										wName, cName, par, s.EnvHits, s.VectorHits, s.SatChecks, s.FMDecisions, survivors)
								}
							case polygonInputs[wName]:
								if s.VectorHits != survivors || s.EnvHits != 0 || s.SatChecks != 0 {
									t.Errorf("%s %s par%d auto: env=%d vec=%d sat=%d over %d survivors, want each clipped",
										wName, cName, par, s.EnvHits, s.VectorHits, s.SatChecks, survivors)
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestSelectAtomOrderFree: a selection decides its constraint atoms as one
// conjunction and splits on != last, so the order the atoms are written in
// changes nothing — every ordering of a four-atom condition (a string !=, a
// window side on each variable, a constraint != inside the window) prints
// the same bytes, on raw and canonical boxes, under auto and forced dense.
func TestSelectAtomOrderFree(t *testing.T) {
	inputs := pruneInputs(t)
	for _, wName := range []string{"boxes", "canon-boxes", "skewed", "canon-skewed"} {
		r := inputs[wName][0]
		c := selectCases(t, r)["ne+window"].cond // y != k, then the window
		cond := Condition{StrNe("id", "b1"), c[1], c[0], c[4]}
		var want string
		for _, perm := range permutations(len(cond)) {
			order := make(Condition, len(cond))
			for i, j := range perm {
				order[i] = cond[j]
			}
			for _, mode := range []string{exec.PlanDense, exec.PlanAuto} {
				out, err := SelectCtx(&exec.Context{Parallelism: 1, PlanMode: mode}, r, order)
				if err != nil {
					t.Fatal(err)
				}
				if want == "" {
					if out.Len() == 0 {
						t.Fatalf("%s: %s selects nothing", wName, order)
					}
					want = dump(out)
				} else if got := dump(out); got != want {
					t.Fatalf("%s %s: condition %s diverges\nwant:\n%s\ngot:\n%s", wName, mode, order, want, got)
				}
			}
		}
	}
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int{}, p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestEstimatorBounds pins the estimator's property the EXPLAIN ANALYZE
// columns rely on: est_pairs is a true upper bound on the pairs that
// survive the filter stage (act_pairs), under every plan mode, and a
// non-empty join output implies a non-zero estimate (every join output
// tuple descends from a surviving pair).
func TestEstimatorBounds(t *testing.T) {
	ops := map[string]func(ec *exec.Context, r1, r2 *relation.Relation) (*relation.Relation, error){
		"join":       JoinCtx,
		"intersect":  IntersectCtx,
		"difference": DifferenceCtx,
	}
	for wName, pair := range pruneInputs(t) {
		for opName, op := range ops {
			for _, mode := range planModes {
				ec := &exec.Context{Parallelism: 2, SeqThreshold: 1, PlanMode: mode}
				out, err := op(ec, pair[0], pair[1])
				if err != nil {
					t.Fatalf("%s %s %s: %v", wName, opName, mode, err)
				}
				var est, act int64
				seen := false
				for _, s := range ec.Stats() {
					if s.Op != opName {
						continue
					}
					seen = true
					est += s.EstPairs
					act += s.PairsTotal - s.PairsPruned
				}
				if !seen && pair[0].Len()*pair[1].Len() > 0 {
					t.Fatalf("%s %s %s: no stats row for the operator", wName, opName, mode)
				}
				if est < act {
					t.Errorf("%s %s %s: est_pairs %d < act_pairs %d — the estimate is not an upper bound",
						wName, opName, mode, est, act)
				}
				if opName == "join" && out.Len() > 0 && est == 0 {
					t.Errorf("%s %s %s: output has %d tuples but est_pairs = 0",
						wName, opName, mode, out.Len())
				}
			}
		}
	}
}

// TestExplainPlanGolden pins the EXPLAIN ANALYZE surface of the planner:
// the rendered span trees for two planned joins show the strategy and the
// est_pairs/act_pairs columns, byte-for-byte — one over the clustered
// fixture, and one over 128 sparse boxes a side, where the frame keeps 18
// of the 12 242 bucket-matched pairs. The render excludes wall
// times, the fixtures are seeded and the context pins one worker (a
// fan-out span would depend on the host's core count), so the output is
// deterministic. Regenerate with: go test ./internal/cqa -run TestExplainPlanGolden -update
func TestExplainPlanGolden(t *testing.T) {
	pair := pruneInputs(t)["canon-clustered"]
	s1, s2 := sparseBoxes(128)
	env := Env{"R1": pair[0], "R2": pair[1], "S1": s1, "S2": s2}
	ec := &exec.Context{Parallelism: 1}
	ec.Tracer = obs.NewTracer()
	for _, node := range []Node{NewProject(NewJoin(Scan("R1"), Scan("R2")), "id", "x", "y"), NewJoin(Scan("S1"), Scan("S2"))} {
		if _, err := Plan(node, env).EvalCtx(env, ec); err != nil {
			t.Fatal(err)
		}
	}
	got := obs.FormatTree(ec.Tracer.Roots(), obs.TreeOptions{})

	golden := filepath.Join("testdata", "explain_plan.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("EXPLAIN tree diverges from golden %s (re-run with -update if intended)\nwant:\n%s\ngot:\n%s",
			golden, want, got)
	}
}
