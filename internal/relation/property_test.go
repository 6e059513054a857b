package relation

import (
	"math/rand"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/rational"
	"cdb/internal/schema"
)

// randRelation builds a random heterogeneous relation (possibly with
// unsatisfiable and duplicate tuples) for normalisation properties.
func randRelation(rng *rand.Rand) *Relation {
	s := schema.MustNew(schema.Rel("id", schema.String), schema.Con("x"))
	r := New(s)
	n := 1 + rng.Intn(5)
	for i := 0; i < n; i++ {
		rv := map[string]Value{}
		if rng.Intn(3) > 0 {
			rv["id"] = Str(string(rune('A' + rng.Intn(2))))
		}
		lo := int64(rng.Intn(10) - 5)
		hi := lo + int64(rng.Intn(6)-2) // sometimes empty (hi < lo)
		t := NewTuple(rv, constraint.And(
			constraint.GeConst("x", rational.FromInt(lo)),
			constraint.LeConst("x", rational.FromInt(hi))))
		r.MustAdd(t)
		if rng.Intn(4) == 0 {
			r.MustAdd(t) // duplicate
		}
	}
	return r
}

// TestQuickNormalizeProperties: Normalize preserves semantics, is
// idempotent, removes unsatisfiable tuples, and never grows the tuple
// count.
func TestQuickNormalizeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 150; iter++ {
		r := randRelation(rng)
		n := r.NormalizeWith(nil)
		if !n.Equivalent(r) {
			t.Fatalf("iter %d: Normalize changed semantics:\n%s\nvs\n%s", iter, r, n)
		}
		if n.Len() > r.Len() {
			t.Fatalf("iter %d: Normalize grew the relation", iter)
		}
		for _, tp := range n.Tuples() {
			if !tp.IsSatisfiable() {
				t.Fatalf("iter %d: unsatisfiable tuple survived: %s", iter, tp)
			}
		}
		nn := n.NormalizeWith(nil)
		if nn.Len() != n.Len() {
			t.Fatalf("iter %d: Normalize not idempotent: %d -> %d", iter, n.Len(), nn.Len())
		}
	}
}

// TestQuickEquivalentIsEquivalence: Equivalent is reflexive and symmetric
// on random relations, and respects Normalize.
func TestQuickEquivalentIsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 80; iter++ {
		a := randRelation(rng)
		b := randRelation(rng)
		if !a.Equivalent(a) {
			t.Fatalf("iter %d: not reflexive", iter)
		}
		if a.Equivalent(b) != b.Equivalent(a) {
			t.Fatalf("iter %d: not symmetric", iter)
		}
		// Splitting a tuple's interval into two pieces preserves
		// equivalence.
		split := New(a.Schema())
		for _, tp := range a.Tuples() {
			iv, ok := tp.Constraint().VarBounds("x")
			if !ok || !iv.HasLower || !iv.HasUpper || iv.IsPoint() {
				split.MustAdd(tp)
				continue
			}
			mid := iv.Lower.Add(iv.Upper).Mul(rational.Half)
			split.MustAdd(tp.WithConstraint(tp.Constraint().With(
				constraint.LeConst("x", mid))))
			split.MustAdd(tp.WithConstraint(tp.Constraint().With(
				constraint.GeConst("x", mid))))
		}
		if !split.Equivalent(a) {
			t.Fatalf("iter %d: interval split broke equivalence:\n%s\nvs\n%s", iter, a, split)
		}
	}
}
