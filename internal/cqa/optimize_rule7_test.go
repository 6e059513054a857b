package cqa

import (
	"strings"
	"testing"
)

// TestProjectPushdownThroughJoin exercises rule 7 structurally (the
// semantic safety is covered by TestQuickOptimizeEquivalence).
func TestProjectPushdownThroughJoin(t *testing.T) {
	env := testEnv(t)
	// Landownership: (name, landId rel; t con), Land: (landId rel; x,y con).
	// π_{name,x}(Landownership ⋈ Land): t and y can be dropped early;
	// landId (shared) must be kept on both sides.
	plan := NewProject(NewJoin(Scan("Landownership"), Scan("Land")), "name", "x")
	opt := Optimize(plan, env)
	top, ok := opt.(*ProjectNode)
	if !ok {
		t.Fatalf("optimized to %T (%s)", opt, opt)
	}
	join, ok := top.Input.(*JoinNode)
	if !ok {
		t.Fatalf("under projection: %T (%s)", top.Input, opt)
	}
	lp, lok := join.Left.(*ProjectNode)
	rp, rok := join.Right.(*ProjectNode)
	if !lok || !rok {
		t.Fatalf("projections not pushed to both sides: %s", opt)
	}
	if strings.Contains(strings.Join(lp.Cols, ","), "t") {
		t.Errorf("left side kept t: %v", lp.Cols)
	}
	if !contains(lp.Cols, "landId") || !contains(rp.Cols, "landId") {
		t.Errorf("shared attribute dropped: left %v right %v", lp.Cols, rp.Cols)
	}
	if contains(rp.Cols, "y") {
		t.Errorf("right side kept y: %v", rp.Cols)
	}
	// Semantics preserved.
	want, err := plan.EvalCtx(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := opt.EvalCtx(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equivalent(want) {
		t.Errorf("rule 7 changed semantics:\n%s\nvs\n%s", want, got)
	}
	// Termination/stability: optimizing again changes nothing structurally.
	again := Optimize(opt, env)
	if again.String() != opt.String() {
		t.Errorf("optimizer not at fixpoint:\n%s\nvs\n%s", opt, again)
	}
}

// TestProjectPushdownSkipsWhenNothingToDrop: projecting exactly the join
// attributes plus everything leaves the plan unchanged (no loop fuel).
func TestProjectPushdownSkipsWhenNothingToDrop(t *testing.T) {
	env := testEnv(t)
	plan := NewProject(NewJoin(Scan("Landownership"), Scan("Land")),
		"name", "landId", "t", "x", "y")
	opt := Optimize(plan, env)
	// Identity projection over the join collapses to the join itself
	// (rule 6), or stays a single projection; either way no nested
	// projections appear.
	if strings.Count(opt.String(), "project") > 1 {
		t.Errorf("unnecessary pushdown: %s", opt)
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
