package datagen

import (
	"fmt"
	"math/rand"

	"cdb/internal/constraint"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// HurricaneRelations is the paper's §3.3 hurricane case study scaled to
// grid × grid parcels, in the shape the repository benchmark's hurricane,
// lookup and snapshot-churn workloads use (it restates the frozen generator
// in benchmark/workloads.go): one Land(landId, x, y) box and three
// consecutive Landownership(name, t, landId) intervals per parcel, and an
// 8-segment Hurricane(t, x, y) track with fractional slopes along the
// diagonal — two equalities and a t interval per segment, so every pair the
// paper's Query 3 decides is a three-variable conjunction with equalities.
// Every tuple is canonical with its memos attached, as a loaded database
// holds them. Deterministic: one fixed seed.
func HurricaneRelations(grid int) (land, owners, track *relation.Relation) {
	const cell, horizon, segments = 6, 40, 8
	rng := rand.New(rand.NewSource(1))
	ri := func(n int) rational.Rat { return rational.FromInt(int64(n)) }
	land = relation.New(schema.MustNew(schema.Rel("landId", schema.String), schema.Con("x"), schema.Con("y")))
	owners = relation.New(schema.MustNew(schema.Rel("name", schema.String), schema.Con("t"), schema.Rel("landId", schema.String)))
	for i := 0; i < grid; i++ {
		for j := 0; j < grid; j++ {
			id := fmt.Sprintf("p%d_%d", i, j)
			land.MustAdd(relation.NewTuple(map[string]relation.Value{"landId": relation.Str(id)}, constraint.And(
				constraint.GeConst("x", ri(cell*i+rng.Intn(2))), constraint.LeConst("x", ri(cell*i+cell-1)),
				constraint.GeConst("y", ri(cell*j+rng.Intn(2))), constraint.LeConst("y", ri(cell*j+cell-1))).Canon()))
			c1, c2 := 8+rng.Intn(9), 22+rng.Intn(11)
			for _, iv := range [][2]int{{0, c1}, {c1 + 1, c2}, {c2 + 1, horizon}} {
				owners.MustAdd(relation.NewTuple(map[string]relation.Value{
					"name": relation.Str(fmt.Sprintf("o%d", rng.Intn(grid*grid))), "landId": relation.Str(id)},
					constraint.And(constraint.GeConst("t", ri(iv[0])), constraint.LeConst("t", ri(iv[1]))).Canon()))
			}
		}
	}
	track = relation.New(schema.MustNew(schema.Con("t"), schema.Con("x"), schema.Con("y")))
	dt := horizon / segments
	for k := 0; k < segments; k++ {
		line := func(v string, from, to int) constraint.Constraint {
			return constraint.MustNew(constraint.Var(v), "=",
				constraint.Var("t").Sub(constraint.ConstInt(int64(k*dt))).Scale(rational.New(int64(to-from), int64(dt))).
					Add(constraint.ConstInt(int64(from))))
		}
		at := func(k int) int { return cell * grid * k / segments }
		track.MustAdd(relation.ConstraintTuple(constraint.And(
			line("x", at(k)+k%3-1, at(k+1)+(k+1)%3-1), line("y", at(k)-k%3+1, at(k+1)-(k+1)%3+1),
			constraint.GeConst("t", ri(k*dt)), constraint.LeConst("t", ri(k*dt+dt))).Canon()))
	}
	return land, owners, track
}
