package cqa

// Semantic-closure differential test (§2.5): "one proves correctness by
// showing that this operator would have the desired semantics, i.e. that
// the results are the same as they would be for equivalent relational
// algebra expressions over the corresponding (infinite) sets of points."
//
// We cannot enumerate infinite point sets, but we can probe them: for
// random heterogeneous relations and every operator, sample a dense grid
// of points and check that membership in the operator's output equals the
// point-wise definition computed from the inputs:
//
//	p ∈ ς_ξ(R)      ⇔  p ∈ R and ξ(p)
//	p ∈ π_X(R)      ⇔  ∃ extension of p in R        (∃ checked on the grid*)
//	p ∈ R ⋈ S       ⇔  p[α(R)] ∈ R and p[α(S)] ∈ S
//	p ∈ R ∪ S       ⇔  p ∈ R or p ∈ S
//	p ∈ R − S       ⇔  p ∈ R and p ∉ S
//
// (*) For projection only the sound direction is grid-checkable (a grid
// witness implies membership); the complete direction is covered exactly
// by the Fourier-Motzkin tests in internal/constraint. All relations here
// are built from grid-aligned constraints so grid witnesses exist.

import (
	"math/rand"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

const closureGrid = 6 // grid points per axis: 0..5

func gridRat(i int) rational.Rat { return rational.FromInt(int64(i)) }

// randClosureRelation builds a relation over [id rel-string; x,y con]
// whose constraints are grid-aligned boxes plus an occasional diagonal
// half-plane with integer intercept.
func randClosureRelation(rng *rand.Rand, s schema.Schema) *relation.Relation {
	r := relation.New(s)
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		rv := map[string]relation.Value{}
		if rng.Intn(3) > 0 {
			rv["id"] = relation.Str(string(rune('A' + rng.Intn(2))))
		}
		x0 := rng.Intn(closureGrid)
		x1 := x0 + rng.Intn(closureGrid-x0)
		y0 := rng.Intn(closureGrid)
		y1 := y0 + rng.Intn(closureGrid-y0)
		cs := []constraint.Constraint{
			constraint.GeConst("x", gridRat(x0)), constraint.LeConst("x", gridRat(x1)),
			constraint.GeConst("y", gridRat(y0)), constraint.LeConst("y", gridRat(y1)),
		}
		if rng.Intn(3) == 0 {
			cs = append(cs, constraint.MustNew(
				constraint.Var("x").Add(constraint.Var("y")), "<=",
				constraint.ConstInt(int64(rng.Intn(2*closureGrid)))))
		}
		r.MustAdd(relation.NewTuple(rv, constraint.And(cs...)))
	}
	return r
}

// idValues are the probe values for the relational string attribute,
// NULL included (it is part of the relational point space).
func idValues() []relation.Value {
	return []relation.Value{relation.Str("A"), relation.Str("B"), relation.Null()}
}

func mustContains(t *testing.T, r *relation.Relation, p relation.Point) bool {
	t.Helper()
	ok, err := r.Contains(p)
	if err != nil {
		t.Fatalf("Contains(%v): %v", p, err)
	}
	return ok
}

func TestQuickClosureSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s := schema.MustNew(schema.Rel("id", schema.String), schema.Con("x"), schema.Con("y"))
	for iter := 0; iter < 60; iter++ {
		r := randClosureRelation(rng, s)
		cond := Condition{AttrCmpConst("x", []CompOp{OpLe, OpLt, OpGe, OpEq, OpNe}[rng.Intn(5)],
			gridRat(rng.Intn(closureGrid)))}
		if rng.Intn(2) == 0 {
			cond = append(cond, StrEq("id", "A"))
		}
		out, err := Select(nil, r, cond)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range idValues() {
			for x := 0; x < closureGrid; x++ {
				for y := 0; y < closureGrid; y++ {
					p := relation.Point{"id": id, "x": relation.Rat(gridRat(x)), "y": relation.Rat(gridRat(y))}
					inR := mustContains(t, r, p)
					condHolds := pointSatisfies(t, cond, s, p)
					want := inR && condHolds
					if got := mustContains(t, out, p); got != want {
						t.Fatalf("iter %d: select closure broken at %v: got %v, want %v\nR=%s\ncond=%s\nout=%s",
							iter, p, got, want, r, cond, out)
					}
				}
			}
		}
	}
}

// pointSatisfies evaluates a condition directly at a point (the
// semantic-side ξ(p), independent of the operator implementation).
func pointSatisfies(t *testing.T, cond Condition, s schema.Schema, p relation.Point) bool {
	t.Helper()
	for _, a := range cond {
		switch at := a.(type) {
		case StringAtom:
			lv := p[at.Attr]
			if lv.IsNull() {
				return false
			}
			var rv relation.Value
			if at.IsLit {
				rv = relation.Str(at.Lit)
			} else {
				rv = p[at.OtherAttr]
				if rv.IsNull() {
					return false
				}
			}
			eq := lv.Equal(rv)
			if (at.Op == OpEq) != eq {
				return false
			}
		case LinearAtom:
			assign := map[string]rational.Rat{}
			for _, v := range at.Expr.Vars() {
				pv := p[v]
				if pv.IsNull() {
					return false
				}
				rv, _ := pv.AsRat()
				assign[v] = rv
			}
			val, err := at.Expr.Eval(assign)
			if err != nil {
				t.Fatal(err)
			}
			ok := false
			switch at.Op {
			case OpEq:
				ok = val.IsZero()
			case OpNe:
				ok = !val.IsZero()
			case OpLt:
				ok = val.Sign() < 0
			case OpLe:
				ok = val.Sign() <= 0
			case OpGt:
				ok = val.Sign() > 0
			case OpGe:
				ok = val.Sign() >= 0
			}
			if !ok {
				return false
			}
		}
	}
	return true
}

func TestQuickClosureUnionDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := schema.MustNew(schema.Rel("id", schema.String), schema.Con("x"), schema.Con("y"))
	for iter := 0; iter < 60; iter++ {
		r1 := randClosureRelation(rng, s)
		r2 := randClosureRelation(rng, s)
		u, err := Union(nil, r1, r2)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Difference(nil, r1, r2)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range idValues() {
			for x := 0; x < closureGrid; x++ {
				for y := 0; y < closureGrid; y++ {
					p := relation.Point{"id": id, "x": relation.Rat(gridRat(x)), "y": relation.Rat(gridRat(y))}
					in1 := mustContains(t, r1, p)
					in2 := mustContains(t, r2, p)
					if got := mustContains(t, u, p); got != (in1 || in2) {
						t.Fatalf("iter %d: union closure broken at %v: %v vs %v", iter, p, got, in1 || in2)
					}
					if got := mustContains(t, d, p); got != (in1 && !in2) {
						t.Fatalf("iter %d: difference closure broken at %v: got %v want %v\nR1=%s\nR2=%s\nD=%s",
							iter, p, got, in1 && !in2, r1, r2, d)
					}
				}
			}
		}
	}
}

func TestQuickClosureJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	// R over [id; x], S over [id; y]: the join semantics p ∈ R⋈S iff the
	// restrictions to each schema are in the respective inputs.
	sR := schema.MustNew(schema.Rel("id", schema.String), schema.Con("x"))
	sS := schema.MustNew(schema.Rel("id", schema.String), schema.Con("y"))
	mk := func(s schema.Schema, v string) *relation.Relation {
		r := relation.New(s)
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			rv := map[string]relation.Value{}
			if rng.Intn(3) > 0 {
				rv["id"] = relation.Str(string(rune('A' + rng.Intn(2))))
			}
			lo := rng.Intn(closureGrid)
			hi := lo + rng.Intn(closureGrid-lo)
			r.MustAdd(relation.NewTuple(rv, constraint.And(
				constraint.GeConst(v, gridRat(lo)), constraint.LeConst(v, gridRat(hi)))))
		}
		return r
	}
	for iter := 0; iter < 80; iter++ {
		r := mk(sR, "x")
		sRel := mk(sS, "y")
		j, err := Join(nil, r, sRel)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range idValues() {
			for x := 0; x < closureGrid; x++ {
				for y := 0; y < closureGrid; y++ {
					p := relation.Point{"id": id, "x": relation.Rat(gridRat(x)), "y": relation.Rat(gridRat(y))}
					pR := relation.Point{"id": id, "x": relation.Rat(gridRat(x))}
					pS := relation.Point{"id": id, "y": relation.Rat(gridRat(y))}
					want := mustContains(t, r, pR) && mustContains(t, sRel, pS)
					if got := mustContains(t, j, p); got != want {
						t.Fatalf("iter %d: join closure broken at %v: got %v want %v\nR=%s\nS=%s\nJ=%s",
							iter, p, got, want, r, sRel, j)
					}
				}
			}
		}
	}
}

func TestQuickClosureProjectSound(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	s := schema.MustNew(schema.Rel("id", schema.String), schema.Con("x"), schema.Con("y"))
	for iter := 0; iter < 60; iter++ {
		r := randClosureRelation(rng, s)
		pr, err := Project(nil, r, "id", "x")
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range idValues() {
			for x := 0; x < closureGrid; x++ {
				// Grid-side existential: is there a y with (id,x,y) ∈ R?
				exists := false
				for y := 0; y < closureGrid; y++ {
					p := relation.Point{"id": id, "x": relation.Rat(gridRat(x)), "y": relation.Rat(gridRat(y))}
					if mustContains(t, r, p) {
						exists = true
						break
					}
				}
				pp := relation.Point{"id": id, "x": relation.Rat(gridRat(x))}
				got := mustContains(t, pr, pp)
				// Sound direction: a grid witness implies projection
				// membership. (The converse needs non-grid witnesses in
				// general; completeness of elimination is tested exactly in
				// internal/constraint.)
				if exists && !got {
					t.Fatalf("iter %d: projection lost point %v\nR=%s\nπ=%s", iter, pp, r, pr)
				}
			}
		}
	}
}
