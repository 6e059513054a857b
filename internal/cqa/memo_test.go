package cqa

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/datagen"
	"cdb/internal/exec"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// The filter stage reads each input from its relation's memo (inputOf).
// These tests pin that the memo is only a memo: a plan on a relation whose
// working set is remembered is the plan on a fresh header over the same
// tuples, an added tuple drops it, one relation keeps one per attribute
// lists, and concurrent operators share it safely.

// samePlan reports how two plans differ, or "" when they do not.
func samePlan(got, want pairPlan) string {
	switch {
	case !slices.Equal(got.cands, want.cands):
		return fmt.Sprintf("%d candidates, want %d", len(got.cands), len(want.cands))
	case got.total != want.total || got.estPairs != want.estPairs:
		return fmt.Sprintf("total %d, est %d; want %d, %d", got.total, got.estPairs, want.total, want.estPairs)
	case dump(tupleRel(got.t1s)) != dump(tupleRel(want.t1s)) || dump(tupleRel(got.t2s)) != dump(tupleRel(want.t2s)):
		return "other canonical inputs"
	}
	return ""
}

// TestPairCandidatesMemo: on every enumShapes pairing and on the Query 3
// joins over relations held without their canonical forms, pairCandidates
// on the stored relations — their working sets remembered from an earlier
// call — gives the plan it gives on fresh relation headers over the same
// tuples, which build theirs. A remembered working set costs nothing to
// read. The filter stage reads no plan mode, so the test has no mode axis.
func TestPairCandidatesMemo(t *testing.T) {
	land, owners, _ := datagen.HurricaneRelations(4)
	shapes := append(enumShapes(t), enumShape{name: "raw-q3-owners", r1: rawCopy(owners), r2: rawCopy(land)})
	for _, shape := range shapes {
		pairShape(shape, false) // warms the memos
		stored, fresh := pairShape(shape, false), pairShape(shape, true)
		if d := samePlan(stored, fresh); d != "" {
			t.Errorf("%s: stored relations: %s", shape.name, d)
		}
		for _, tu := range stored.t1s {
			if !tu.Constraint().IsCanonical() {
				t.Fatalf("%s: the remembered input is not canonical: %s", shape.name, tu)
			}
		}
		rel, con := sharedAttrs(shape.r1.Schema(), shape.r2.Schema())
		if n := testing.AllocsPerRun(5, func() { inputOf(shape.r1, rel, con); inputOf(shape.r2, rel, con) }); n != 0 {
			t.Errorf("%s: reading two remembered inputs allocated %v times", shape.name, n)
		}
	}
}

// rawCopy is r with every constraint part rebuilt from its atoms, not
// flagged canonical: the filter stage canonicalises it into its memo.
func rawCopy(r *relation.Relation) *relation.Relation {
	out := relation.New(r.Schema())
	for _, tu := range r.Tuples() {
		out.MustAdd(tu.WithConstraint(constraint.And(tu.Constraint().Constraints()...)))
	}
	return out
}

// freshHeader is a new header over r's tuples: nothing remembered.
func freshHeader(r *relation.Relation) *relation.Relation {
	return relation.FromValid(r.Schema(), r.Tuples())
}

// checkJoin joins r1 and r2 under auto, as stored and on fresh headers, and
// fails when the two outputs differ; it returns the stored one.
func checkJoin(t *testing.T, what string, r1, r2 *relation.Relation) *relation.Relation {
	t.Helper()
	got, err := JoinCtx(&exec.Context{}, r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := JoinCtx(&exec.Context{}, freshHeader(r1), freshHeader(r2))
	if err != nil {
		t.Fatal(err)
	}
	if dump(got) != dump(want) {
		t.Fatalf("%s: the stored relations join to\n%s\nfresh headers to\n%s", what, dump(got), dump(want))
	}
	return got
}

// TestFilterMemoDroppedOnAdd: a tuple added after a join — by Add or by
// AddBound, on a relational key (Landownership ⋈ Land) or on the frame's
// columns (R0 ⋈ Hurricane) — takes part in the next join: what the
// relation remembered of its tuples before is dropped.
func TestFilterMemoDroppedOnAdd(t *testing.T) {
	land, owners, track := datagen.HurricaneRelations(4)
	ri := func(n int) rational.Rat { return rational.FromInt(int64(n)) }
	square := func(x, y int) constraint.Conjunction {
		return constraint.And(constraint.GeConst("x", ri(x)), constraint.LeConst("x", ri(x+2)),
			constraint.GeConst("y", ri(y)), constraint.LeConst("y", ri(y+2))).Canon()
	}
	grows := func(what string, before int, add func() error, r1, r2 *relation.Relation) *relation.Relation {
		t.Helper()
		if err := add(); err != nil {
			t.Fatal(err)
		}
		out := checkJoin(t, what, r1, r2)
		if out.Len() <= before {
			t.Fatalf("%s: %d tuples after the add, %d before: the added tuple joined nothing", what, out.Len(), before)
		}
		return out
	}
	r0 := checkJoin(t, "owners ⋈ land", owners, land)
	r0 = grows("Add to land", r0.Len(), func() error {
		return land.Add(relation.NewTuple(map[string]relation.Value{"landId": relation.Str("p0_0")}, square(30, 30)))
	}, owners, land)
	r0 = grows("AddBound to land", r0.Len(), func() error {
		return land.AddBound([]relation.Bound{{Attr: 0, Val: relation.Str("p1_1")}}, square(31, 31))
	}, owners, land)
	hit := checkJoin(t, "R0 ⋈ track", r0, track)
	grows("Add to track", hit.Len(), func() error {
		// A storm parked over the two added squares for the whole horizon.
		return track.Add(relation.ConstraintTuple(constraint.And(
			constraint.EqConst("x", ri(31)), constraint.EqConst("y", ri(31)),
			constraint.GeConst("t", ri(0)), constraint.LeConst("t", ri(40))).Canon()))
	}, r0, track)
}

// TestFilterMemoTwoAttributeLists: one relation joined in turn on two
// attribute lists — Landownership on landId with Land, and on t with a
// time window — joins right on both, every time, and keeps both working
// sets: neither join evicts the other's.
func TestFilterMemoTwoAttributeLists(t *testing.T) {
	land, owners, _ := datagen.HurricaneRelations(4)
	window := relation.New(schema.MustNew(schema.Con("t")))
	window.MustAdd(relation.ConstraintTuple(constraint.And(ge("t", "4"), le("t", "9")).Canon()))
	for round := 0; round < 3; round++ {
		checkJoin(t, fmt.Sprintf("round %d: owners ⋈ land", round), owners, land)
		checkJoin(t, fmt.Sprintf("round %d: owners ⋈ window", round), owners, window)
	}
	relA, conA := sharedAttrs(owners.Schema(), land.Schema())
	relB, conB := sharedAttrs(owners.Schema(), window.Schema())
	if n := testing.AllocsPerRun(5, func() { inputOf(owners, relA, conA); inputOf(owners, relB, conB) }); n != 0 {
		t.Errorf("owners over %v / %v, then %v / %v: built again (%v allocations): one evicts the other", relA, conA, relB, conB, n)
	}
}

// TestFilterMemoConcurrent: goroutines joining the same stored relations at
// once, from cold memos, all print the bytes a fresh header prints — the
// first build of a working set races with its readers and with another
// build. scripts/check.sh runs it under -race.
func TestFilterMemoConcurrent(t *testing.T) {
	land, owners, track := datagen.HurricaneRelations(4)
	query3 := func(l, o, tr *relation.Relation) (string, error) {
		r0, err := JoinCtx(&exec.Context{}, o, l)
		if err != nil {
			return "", err
		}
		out, err := JoinCtx(&exec.Context{}, r0, tr)
		if err != nil {
			return "", err
		}
		return dump(out), nil
	}
	want, err := query3(freshHeader(land), freshHeader(owners), freshHeader(track))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				got, err := query3(land, owners, track)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want {
					t.Errorf("goroutine %d, join %d: the stored relations print other bytes", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
