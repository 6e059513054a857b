package cqa

import (
	"math/rand"
	"strings"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

func testEnv(t *testing.T) Env {
	t.Helper()
	owners := relation.New(schema.MustNew(
		schema.Rel("name", schema.String), schema.Rel("landId", schema.String), schema.Con("t")))
	owners.MustAdd(relation.NewTuple(map[string]relation.Value{
		"name": relation.Str("ann"), "landId": relation.Str("A")},
		constraint.And(ge("t", "0"), le("t", "5"))))
	owners.MustAdd(relation.NewTuple(map[string]relation.Value{
		"name": relation.Str("bob"), "landId": relation.Str("A")},
		constraint.And(ge("t", "5"), le("t", "10"))))
	owners.MustAdd(relation.NewTuple(map[string]relation.Value{
		"name": relation.Str("cat"), "landId": relation.Str("B")},
		constraint.And(ge("t", "0"), le("t", "10"))))
	return EnvOf(map[string]*relation.Relation{"Landownership": owners, "Land": landRelForEnv()})
}

func landRelForEnv() *relation.Relation {
	r := relation.New(schema.MustNew(
		schema.Rel("landId", schema.String), schema.Con("x"), schema.Con("y")))
	r.MustAdd(relation.NewTuple(map[string]relation.Value{"landId": relation.Str("A")},
		constraint.And(ge("x", "0"), le("x", "2"), ge("y", "0"), le("y", "2"))))
	r.MustAdd(relation.NewTuple(map[string]relation.Value{"landId": relation.Str("B")},
		constraint.And(ge("x", "3"), le("x", "5"), ge("y", "0"), le("y", "1"))))
	return r
}

func TestPlanEvalQuery1(t *testing.T) {
	// Paper Query 1: who owned Land A and when.
	env := testEnv(t)
	plan := NewProject(
		NewSelect(Scan("Landownership"), Condition{StrEq("landId", "A")}),
		"name", "t")
	got, err := plan.EvalCtx(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("query 1: %d tuples:\n%s", got.Len(), got)
	}
	if got.Schema().Has("landId") {
		t.Error("landId survived projection")
	}
}

func TestPlanSchemaErrors(t *testing.T) {
	env := testEnv(t)
	if _, err := Scan("Missing").OutSchema(env); err == nil {
		t.Error("unknown scan schema resolved")
	}
	if _, err := Scan("Missing").EvalCtx(env, nil); err == nil {
		t.Error("unknown scan evaluated")
	}
	bad := NewSelect(Scan("Land"), Condition{AttrCmpConst("t", OpLe, q("1"))})
	if _, err := bad.OutSchema(env); err == nil {
		t.Error("condition over missing attribute resolved")
	}
	badU := NewUnion(Scan("Land"), Scan("Landownership"))
	if _, err := badU.OutSchema(env); err == nil {
		t.Error("union schema mismatch resolved")
	}
	if _, err := badU.EvalCtx(env, nil); err == nil {
		t.Error("union schema mismatch evaluated")
	}
	badD := NewDiff(Scan("Land"), Scan("Landownership"))
	if _, err := badD.OutSchema(env); err == nil {
		t.Error("diff schema mismatch resolved")
	}
}

func TestPlanString(t *testing.T) {
	plan := NewProject(
		NewSelect(NewJoin(Scan("A"), Scan("B")), Condition{AttrCmpConst("t", OpGe, q("4"))}),
		"name")
	s := plan.String()
	for _, want := range []string{"project", "select", "join A and B", "t >= 4", "name"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string %q missing %q", s, want)
		}
	}
}

func TestOptimizeSelectMergeAndPushdown(t *testing.T) {
	env := testEnv(t)
	// select name="ann" from (select t>=1 from (join Landownership and Land))
	plan := NewSelect(
		NewSelect(
			NewJoin(Scan("Landownership"), Scan("Land")),
			Condition{AttrCmpConst("t", OpGe, q("1"))}),
		Condition{StrEq("name", "ann"), AttrCmpConst("x", OpLe, q("1"))})
	opt := Optimize(plan, env)

	// The top node should now be a join (every atom pushed to one side).
	join, ok := opt.(*JoinNode)
	if !ok {
		t.Fatalf("optimized plan is %T (%s), want join at top", opt, opt)
	}
	if _, ok := join.Left.(*SelectNode); !ok {
		t.Errorf("left side of join is %T, want select pushed down (%s)", join.Left, opt)
	}
	if _, ok := join.Right.(*SelectNode); !ok {
		t.Errorf("right side of join is %T, want select pushed down (%s)", join.Right, opt)
	}

	// Equivalence of results.
	want, err := plan.EvalCtx(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := opt.EvalCtx(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equivalent(want) {
		t.Errorf("optimization changed semantics:\nplan: %s\nopt:  %s\nwant %s\ngot %s", plan, opt, want, got)
	}
}

func TestOptimizeSelectThroughUnionAndDiff(t *testing.T) {
	env := EnvOf(map[string]*relation.Relation{
		"P": landRelForEnv(),
		"Q": landRelForEnv(),
	})
	cond := Condition{AttrCmpConst("x", OpLe, q("1"))}
	planU := NewSelect(NewUnion(Scan("P"), Scan("Q")), cond)
	optU := Optimize(planU, env)
	if _, ok := optU.(*UnionNode); !ok {
		t.Errorf("select not pushed through union: %s", optU)
	}
	wantU, _ := planU.EvalCtx(env, nil)
	gotU, err := optU.EvalCtx(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !gotU.Equivalent(wantU) {
		t.Error("union pushdown changed semantics")
	}

	planD := NewSelect(NewDiff(Scan("P"), Scan("Q")), cond)
	optD := Optimize(planD, env)
	if _, ok := optD.(*DiffNode); !ok {
		t.Errorf("select not pushed through difference: %s", optD)
	}
	wantD, _ := planD.EvalCtx(env, nil)
	gotD, err := optD.EvalCtx(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !gotD.Equivalent(wantD) {
		t.Error("difference pushdown changed semantics")
	}
}

func TestOptimizeProjectionRules(t *testing.T) {
	env := testEnv(t)
	// Nested projection collapses.
	plan := NewProject(NewProject(Scan("Land"), "landId", "x"), "landId")
	opt := Optimize(plan, env)
	p, ok := opt.(*ProjectNode)
	if !ok {
		t.Fatalf("optimized to %T", opt)
	}
	if _, ok := p.Input.(*ScanNode); !ok {
		t.Errorf("nested projection not collapsed: %s", opt)
	}
	// Identity projection dropped.
	idPlan := NewProject(Scan("Land"), "landId", "x", "y")
	idOpt := Optimize(idPlan, env)
	if _, ok := idOpt.(*ScanNode); !ok {
		t.Errorf("identity projection not dropped: %s", idOpt)
	}
	// Equivalence.
	want, _ := plan.EvalCtx(env, nil)
	got, err := opt.EvalCtx(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equivalent(want) {
		t.Error("projection rules changed semantics")
	}
}

// TestQuickOptimizeEquivalence generates random plans over random data and
// verifies that Optimize preserves semantics exactly.
func TestQuickOptimizeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := schema.MustNew(schema.Rel("id", schema.String), schema.Con("x"), schema.Con("y"))
	randRel := func() *relation.Relation {
		r := relation.New(s)
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			rv := map[string]relation.Value{}
			if rng.Intn(3) > 0 {
				rv["id"] = relation.Str(string(rune('A' + rng.Intn(3))))
			}
			lo := int64(rng.Intn(6))
			hi := lo + int64(rng.Intn(5))
			r.MustAdd(relation.NewTuple(rv, constraint.And(
				constraint.GeConst("x", rational.FromInt(lo)),
				constraint.LeConst("x", rational.FromInt(hi)),
				constraint.GeConst("y", rational.FromInt(-2)),
				constraint.LeConst("y", rational.FromInt(int64(rng.Intn(8)))))))
		}
		return r
	}
	randAtom := func() Atom {
		switch rng.Intn(4) {
		case 0:
			return StrEq("id", string(rune('A'+rng.Intn(3))))
		case 1:
			return AttrCmpConst("x", []CompOp{OpLe, OpLt, OpGe, OpGt, OpEq, OpNe}[rng.Intn(6)],
				rational.FromInt(int64(rng.Intn(8))))
		case 2:
			return AttrCmpAttr("x", OpLe, "y")
		default:
			return Linear(constraint.Var("x").Add(constraint.Var("y")), OpLe,
				constraint.ConstInt(int64(rng.Intn(10))))
		}
	}
	var build func(depth int) Node
	build = func(depth int) Node {
		if depth == 0 {
			return Scan([]string{"P", "Q"}[rng.Intn(2)])
		}
		switch rng.Intn(5) {
		case 0:
			return NewSelect(build(depth-1), Condition{randAtom()})
		case 1:
			cols := [][]string{{"id", "x", "y"}, {"id", "x"}, {"x"}, {"id"}}[rng.Intn(4)]
			return NewProject(build(depth-1), cols...)
		case 2:
			return NewUnion(build(depth-1), build(depth-1))
		case 3:
			return NewDiff(build(depth-1), build(depth-1))
		default:
			return NewSelect(build(depth-1), Condition{randAtom(), randAtom()})
		}
	}
	for iter := 0; iter < 40; iter++ {
		env := EnvOf(map[string]*relation.Relation{"P": randRel(), "Q": randRel()})
		plan := build(2 + rng.Intn(2))
		want, err := plan.EvalCtx(env, nil)
		if err != nil {
			// The generator can produce ill-typed plans (e.g. selecting on a
			// projected-away attribute); those are rejected uniformly, which
			// is itself the contract — skip them here.
			continue
		}
		opt := Optimize(plan, env)
		got, err := opt.EvalCtx(env, nil)
		if err != nil {
			t.Fatalf("iter %d: optimized eval: %v (%s)", iter, err, opt)
		}
		if !got.Equivalent(want) {
			t.Fatalf("iter %d: semantics changed\nplan: %s\nopt:  %s\nwant: %s\ngot:  %s",
				iter, plan, opt, want, got)
		}
	}
}
