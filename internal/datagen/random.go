package datagen

// Random heterogeneous schemas and relations for the differential oracle
// (internal/oracle) and the metamorphic suite. Unlike the §5.4 workload
// generators above — which reproduce the paper's box distributions — these
// draw from the whole heterogeneous data model: mixed C/R schemas, tuples
// with NULL relational bindings (narrow semantics), unconstrained
// attributes (broad semantics), equalities, strict inequalities, multi-
// variable atoms, and the occasional unsatisfiable conjunction. Everything
// is driven by the caller's *rand.Rand, so a run is reproducible from its
// seed.

import (
	"fmt"
	"math/rand"

	"cdb/internal/constraint"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// randomRelAttrs and randomConAttrs are the attribute-name pools for
// RandomSchema. Fixed names keep failure reports readable and let two
// schemas drawn independently share attributes (exercising natural join).
var (
	randomRelAttrs = []string{"id", "tag"}
	randomConAttrs = []string{"x", "y", "z"}
)

// RandomSchema draws a heterogeneous schema: 0-2 relational string
// attributes and 1-3 constraint attributes.
func RandomSchema(rng *rand.Rand) schema.Schema {
	var attrs []schema.Attribute
	nRel := rng.Intn(3)
	for i := 0; i < nRel; i++ {
		attrs = append(attrs, schema.Rel(randomRelAttrs[i], schema.String))
	}
	nCon := 1 + rng.Intn(3)
	for i := 0; i < nCon; i++ {
		attrs = append(attrs, schema.Con(randomConAttrs[i]))
	}
	return schema.MustNew(attrs...)
}

// randomRat draws a small rational constant: integers in [-10, 10], with an
// occasional half or third so non-integer boundaries are exercised.
func randomRat(rng *rand.Rand) rational.Rat {
	n := int64(rng.Intn(21) - 10)
	switch rng.Intn(4) {
	case 0:
		return rational.New(2*n+1, 2)
	case 1:
		return rational.New(3*n-1, 3)
	default:
		return rational.FromInt(n)
	}
}

// randomAtom draws one atomic linear constraint over the given variables:
// mostly single-variable bounds (the common CDB shape), sometimes a two-
// variable half-plane or an equality, with every operator in {=, <=, <}
// reachable. Coefficients are small nonzero integers.
func randomAtom(rng *rand.Rand, vars []string) constraint.Constraint {
	nz := func() rational.Rat {
		for {
			c := int64(rng.Intn(5) - 2)
			if c != 0 {
				return rational.FromInt(c)
			}
		}
	}
	expr := constraint.Var(vars[rng.Intn(len(vars))]).Scale(nz())
	if len(vars) > 1 && rng.Intn(3) == 0 {
		expr = expr.Add(constraint.Var(vars[rng.Intn(len(vars))]).Scale(nz()))
	}
	expr = expr.AddConst(randomRat(rng).Neg())
	op := constraint.Le
	switch rng.Intn(6) {
	case 0:
		op = constraint.Eq
	case 1:
		op = constraint.Lt
	}
	return constraint.Constraint{Expr: expr, Op: op}
}

// RandomConjunction draws a conjunction of 0-4 random atoms over vars. The
// empty conjunction (broad "true") comes up deliberately often, and the
// draw is allowed to produce unsatisfiable conjunctions — downstream
// consumers must prune them, which is exactly what the oracle checks.
func RandomConjunction(rng *rand.Rand, vars []string) constraint.Conjunction {
	if len(vars) == 0 || rng.Intn(8) == 0 {
		return constraint.True()
	}
	n := rng.Intn(5)
	cs := make([]constraint.Constraint, 0, n)
	for i := 0; i < n; i++ {
		cs = append(cs, randomAtom(rng, vars))
	}
	return constraint.And(cs...)
}

// DenseSystem draws a dense system of n atoms over vars variables v0, v1,
// …: every atom is Σ cᵢ·vᵢ ≤ 1 over every variable, each cᵢ drawn from
// {−2, −1, 1, 2}. Every such system holds at the origin, but eliminating
// any variable combines most pairs of atoms: the stress case for
// Fourier–Motzkin elimination. Deterministic in seed.
func DenseSystem(vars, n int, seed int64) constraint.Conjunction {
	rng := rand.New(rand.NewSource(seed))
	coefs := [...]int64{-2, -1, 1, 2}
	cs := make([]constraint.Constraint, n)
	for i := range cs {
		e := constraint.ConstInt(-1)
		for v := 0; v < vars; v++ {
			e = e.Add(constraint.Var(fmt.Sprintf("v%d", v)).Scale(rational.FromInt(coefs[rng.Intn(len(coefs))])))
		}
		cs[i] = constraint.Constraint{Expr: e, Op: constraint.Le}
	}
	return constraint.And(cs...)
}

// randomRelVals draws the relational part of a tuple: each relational
// attribute is bound with probability ~3/4 to a value from a three-letter
// pool (so independently drawn tuples collide, exercising join matches,
// difference subtraction and dedup), and left NULL otherwise (narrow
// missing-attribute semantics).
func randomRelVals(rng *rand.Rand, s schema.Schema) map[string]relation.Value {
	pool := []string{"a", "b", "c"}
	rvals := map[string]relation.Value{}
	for _, name := range s.RelationalNames() {
		if rng.Intn(4) != 0 {
			rvals[name] = relation.Str(pool[rng.Intn(len(pool))])
		}
	}
	return rvals
}

// RandomTuple draws one heterogeneous tuple for schema s.
func RandomTuple(rng *rand.Rand, s schema.Schema) relation.Tuple {
	return relation.NewTuple(randomRelVals(rng, s), RandomConjunction(rng, s.ConstraintNames()))
}

// RandomRelation draws a relation over s with up to maxTuples random
// tuples (possibly zero — the empty relation is a corner case worth
// hitting). Tuples are NOT normalised or canonicalised: the raw forms are
// what the operators must cope with.
func RandomRelation(rng *rand.Rand, s schema.Schema, maxTuples int) *relation.Relation {
	r := relation.New(s)
	n := rng.Intn(maxTuples + 1)
	for i := 0; i < n; i++ {
		r.MustAdd(RandomTuple(rng, s))
	}
	return r
}

// RandomRelationPair draws two relations over the same random schema —
// the input shape for the binary operators that require equal schemas
// (union, intersect, difference) and a natural join with full overlap.
func RandomRelationPair(rng *rand.Rand, maxTuples int) (*relation.Relation, *relation.Relation) {
	s := RandomSchema(rng)
	return RandomRelation(rng, s, maxTuples), RandomRelation(rng, s, maxTuples)
}

// RandomJoinPair draws two relations over independently drawn schemas that
// share attributes by name (the fixed pools guarantee overlap is common
// but not certain), renaming on collision is left to the caller. The
// second schema is re-drawn until the pair is join-compatible (it always
// is with the fixed pools, since shared names agree in type and kind).
func RandomJoinPair(rng *rand.Rand, maxTuples int) (*relation.Relation, *relation.Relation, error) {
	s1 := RandomSchema(rng)
	s2 := RandomSchema(rng)
	if _, err := s1.Join(s2); err != nil {
		return nil, nil, fmt.Errorf("datagen: random schemas not join-compatible: %w", err)
	}
	return RandomRelation(rng, s1, maxTuples), RandomRelation(rng, s2, maxTuples), nil
}
