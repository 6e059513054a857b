package cqa

import (
	"testing"

	"cdb/internal/datagen"
)

// costEnv builds three base relations with very different pairing costs:
// Big1×Big2 overlap heavily (every envelope near the origin), while Tiny
// is far away from both, so any join touching Tiny is estimated far
// cheaper than Big1 ⋈ Big2.
func costEnv(t *testing.T) Env {
	t.Helper()
	p := datagen.Scaled(10)
	p.Seed = 41
	p2 := p
	p2.Seed = p.Seed + 1000
	p3 := p
	p3.Seed = p.Seed + 2000
	// One cluster each, same center seed: Big1 and Big2 overlap heavily.
	big1 := datagen.ClusteredBoxRelation(p, 24, 1, 80, 7)
	big2 := datagen.ClusteredBoxRelation(p2, 24, 1, 80, 7)
	// A different center seed puts Tiny's single tight cluster elsewhere.
	tiny := datagen.ClusteredBoxRelation(p3, 24, 1, 5, 1234)
	return Env{"Big1": big1, "Big2": big2, "Tiny": tiny}
}

// TestReorderJoinChain: a three-way join whose plan starts with the most
// expensive pair is rebuilt to start with a cheaper one, the output
// schema (names and order) is preserved by the wrapping projection, and
// the point set is unchanged. A chain already starting with its cheapest
// pair is left alone — the ≥2× gate.
func TestReorderJoinChain(t *testing.T) {
	env := costEnv(t)
	expensiveFirst := NewJoin(NewJoin(Scan("Big1"), Scan("Big2")), Scan("Tiny"))

	out, ok := reorderJoinChain(expensiveFirst, env)
	if !ok {
		t.Fatal("reorderJoinChain did not fire on an expensive-first chain")
	}
	proj, isProj := out.(*ProjectNode)
	if !isProj {
		t.Fatalf("rewritten chain is %T, want a schema-restoring projection", out)
	}
	origSchema, err := expensiveFirst.OutSchema(env.Schemas())
	if err != nil {
		t.Fatal(err)
	}
	newSchema, err := proj.OutSchema(env.Schemas())
	if err != nil {
		t.Fatal(err)
	}
	if origSchema.String() != newSchema.String() {
		t.Errorf("rewrite changed the output schema:\nwant %s\ngot  %s", origSchema, newSchema)
	}

	want, err := expensiveFirst.EvalCtx(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.EvalCtx(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Errorf("join reordering changed the result\nwant:\n%s\ngot:\n%s", want, got)
	}

	// Tiny ⋈ Big1 first is already (near-)optimal: the gate must hold it.
	cheapFirst := NewJoin(NewJoin(Scan("Tiny"), Scan("Big1")), Scan("Big2"))
	if _, ok := reorderJoinChain(cheapFirst, env); ok {
		t.Error("reorderJoinChain churned a chain already starting with its cheapest pair")
	}

	// Chains with a non-scan leaf are out of scope.
	mixed := NewJoin(NewJoin(Scan("Big1"), NewProject(Scan("Big2"), "id", "x")), Scan("Tiny"))
	if _, ok := reorderJoinChain(mixed, env); ok {
		t.Error("reorderJoinChain fired on a chain with a non-scan leaf")
	}
}
