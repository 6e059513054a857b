package convert

import (
	"math/rand"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/geometry"
	"cdb/internal/rational"
)

// referenceClosureVertices is the body ClosureVertices had while it keyed
// vertices by their rendered string and evaluated every atom through an
// assignment map. Kept verbatim as the oracle for the string-free body.
func referenceClosureVertices(j constraint.Conjunction, xVar, yVar string) []geometry.Point {
	cs := j.Constraints()
	var verts []geometry.Point
	seen := map[string]bool{}
	add := func(p geometry.Point) {
		k := p.String()
		if !seen[k] {
			seen[k] = true
			verts = append(verts, p)
		}
	}
	onClosure := func(p geometry.Point) bool {
		assign := map[string]rational.Rat{xVar: p.X, yVar: p.Y}
		for _, c := range cs {
			v, err := c.Expr.Eval(assign)
			if err != nil {
				return false
			}
			// Closure: strict constraints relax to their boundary.
			switch c.Op {
			case constraint.Eq:
				if !v.IsZero() {
					return false
				}
			default:
				if v.Sign() > 0 {
					return false
				}
			}
		}
		return true
	}
	for i := 0; i < len(cs); i++ {
		for k := i + 1; k < len(cs); k++ {
			p, ok := lineIntersection(cs[i], cs[k], xVar, yVar)
			if ok && onClosure(p) {
				add(p)
			}
		}
	}
	return verts
}

// TestClosureVerticesMatchesReference: same vertices in the same order on
// random conjunctions of <=, < and = atoms — bounded, unbounded, empty,
// degenerate, with several boundary lines through one vertex — and on
// atoms over a third variable.
func TestClosureVerticesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	coef := func() rational.Rat { return rational.New(rng.Int63n(9)-4, 1+rng.Int63n(3)) }
	ops := []constraint.Op{constraint.Le, constraint.Le, constraint.Le, constraint.Lt, constraint.Eq}
	vertices, shared := 0, 0
	for i := 0; i < 400; i++ {
		// Atoms that hold at (px, py), most with slack and some with none,
		// so the region is usually non-empty and the point itself is often a
		// vertex met by many pairs of lines; one case in eight drops that.
		px, py := rational.FromInt(rng.Int63n(7)-3), rational.FromInt(rng.Int63n(7)-3)
		cs := make([]constraint.Constraint, 2+rng.Intn(7))
		for k := range cs {
			a, b, op := coef(), coef(), ops[rng.Intn(len(ops))]
			slack := rng.Int63n(4)
			if op == constraint.Eq {
				slack = 0
			}
			if i%8 == 0 {
				slack = rng.Int63n(9) - 6
			}
			terms := []constraint.Term{{Var: "x", Coef: a}, {Var: "y", Coef: b}}
			if rng.Intn(60) == 0 {
				terms = append(terms, constraint.Term{Var: "z", Coef: rational.One})
			}
			konst := a.Mul(px).Add(b.Mul(py)).Neg().Sub(rational.FromInt(slack))
			cs[k] = constraint.Constraint{Expr: constraint.NewExpr(terms, konst), Op: op}
		}
		j := constraint.And(cs...)
		if rng.Intn(2) == 0 {
			j = j.Canon()
		}
		got, want := ClosureVertices(j, "x", "y"), referenceClosureVertices(j, "x", "y")
		if len(got) != len(want) {
			t.Fatalf("case %d: %d vertices, want %d\n j: %s\n got %v\n want %v", i, len(got), len(want), j, got, want)
		}
		for k := range want {
			if !got[k].Equal(want[k]) {
				t.Fatalf("case %d vertex %d: %s, want %s\n j: %s", i, k, got[k], want[k], j)
			}
			if got[k].Equal(geometry.Point{X: px, Y: py}) {
				shared++
			}
		}
		vertices += len(want)
	}
	if vertices < 400 || shared < 50 {
		t.Fatalf("fixture too thin: %d vertices, %d of them the shared point, over 400 cases", vertices, shared)
	}
}
