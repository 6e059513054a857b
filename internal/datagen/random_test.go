package datagen

import (
	"math/rand"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/rational"
	"cdb/internal/schema"
)

func TestRandomSchemaShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sawRel, sawNoRel := false, false
	for i := 0; i < 100; i++ {
		s := RandomSchema(rng)
		if len(s.ConstraintNames()) == 0 {
			t.Fatal("random schema must have at least one constraint attribute")
		}
		if len(s.RelationalNames()) > 0 {
			sawRel = true
		} else {
			sawNoRel = true
		}
		for _, a := range s.Attrs() {
			if a.Kind == schema.Constraint && a.Type != schema.Rational {
				t.Fatalf("constraint attribute %q not rational", a.Name)
			}
		}
	}
	if !sawRel || !sawNoRel {
		t.Errorf("schema draw lacks variety: withRel=%v withoutRel=%v", sawRel, sawNoRel)
	}
}

func TestRandomRelationReproducible(t *testing.T) {
	a := RandomRelation(rand.New(rand.NewSource(5)), RandomSchema(rand.New(rand.NewSource(4))), 6)
	b := RandomRelation(rand.New(rand.NewSource(5)), RandomSchema(rand.New(rand.NewSource(4))), 6)
	if a.String() != b.String() {
		t.Fatalf("same seeds, different relations:\n%s\nvs\n%s", a, b)
	}
}

func TestRandomConjunctionVariety(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vars := []string{"x", "y"}
	empty, unsat := 0, 0
	for i := 0; i < 300; i++ {
		j := RandomConjunction(rng, vars)
		if j.Len() == 0 {
			empty++
		}
		if !j.IsSatisfiable() {
			unsat++
		}
	}
	if empty == 0 {
		t.Error("empty (broad true) conjunction never drawn")
	}
	if unsat == 0 {
		t.Error("unsatisfiable conjunction never drawn — operators' pruning paths go unexercised")
	}
}

func TestRandomJoinPairCompatible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		r1, r2, err := RandomJoinPair(rng, 4)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if _, err := r1.Schema().Join(r2.Schema()); err != nil {
			t.Fatalf("case %d: schemas not join-compatible: %v", i, err)
		}
	}
}

// TestDenseSystemDeterministic: a dense system is a function of its seed
// and shape, every atom is over every variable with coefficients in
// {−2, −1, 1, 2} and right-hand side 1, and different seeds draw different
// systems.
func TestDenseSystemDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		a, b := DenseSystem(5, 14, seed), DenseSystem(5, 14, seed)
		if a.String() != b.String() {
			t.Fatalf("seed %d: same seed, different systems:\n%s\nvs\n%s", seed, a, b)
		}
		if c := DenseSystem(5, 14, seed+10); c.String() == a.String() {
			t.Fatalf("seeds %d and %d draw the same system %s", seed, seed+10, a)
		}
		if a.Len() != 14 {
			t.Fatalf("seed %d: %d atoms, want 14", seed, a.Len())
		}
		for _, c := range a.Constraints() {
			if c.Op != constraint.Le || !c.Expr.ConstTerm().Equal(rational.FromInt(-1)) || len(c.Expr.Terms()) != 5 {
				t.Fatalf("seed %d: atom %s is not Σ cᵢ·vᵢ ≤ 1 over five variables", seed, c)
			}
			for _, term := range c.Expr.Terms() {
				if k := term.Coef.Abs(); !k.Equal(rational.One) && !k.Equal(rational.FromInt(2)) {
					t.Fatalf("seed %d: coefficient %s outside {−2, −1, 1, 2}", seed, term.Coef)
				}
			}
		}
	}
	if got, want := DenseSystem(2, 2, 1).String(), "-v0 + 2v1 <= 1, 2v0 + 2v1 <= 1"; got != want {
		t.Fatalf("DenseSystem(2, 2, 1) = %s, want %s", got, want)
	}
}
