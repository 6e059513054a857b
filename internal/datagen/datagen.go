// Package datagen generates the synthetic workloads of the paper's §5.4
// experiments, with the published parameters:
//
//	"1. Randomly generate 10,000 bounding boxes representing data tuples,
//	    with height and width in [1,100]; store them in the data file.
//	 2. Randomly generate 100 queries, which are rectangles of height and
//	    width in [1,100]; store them in the query file. For experiment 3,
//	    generate 500 queries.
//	 3. All rectangles are obtained by randomly generating (a) the
//	    upper-left coordinates, and (b) the height and width of each
//	    rectangle. All coordinates are between [0, 3000]."
//
// The original data/query files were not published; fixed seeds make our
// samples reproducible, and any sample from the same distribution
// reproduces the shape of Figures 4-5 (see DESIGN.md, substitutions).
//
// The same generator also produces the *relational* variants (experiments
// 1-B and 2-B): a relational attribute holds a single value per tuple, so
// its "bounding box" is a degenerate point.
package datagen

import (
	"fmt"
	"math/rand"

	"cdb/internal/constraint"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/rstar"
	"cdb/internal/schema"
)

// Params describe one §5.4 workload.
type Params struct {
	NumData    int     // data rectangles (paper: 10,000)
	NumQueries int     // query rectangles (paper: 100; experiment 3: 500)
	CoordMax   float64 // upper-left coordinate range [0, CoordMax] (paper: 3000)
	SizeMin    float64 // minimum height/width (paper: 1)
	SizeMax    float64 // maximum height/width (paper: 100)
	Seed       int64   // RNG seed (fixed for reproducibility)
}

// Paper returns the exact parameters published in §5.4.
func Paper() Params {
	return Params{
		NumData:    10000,
		NumQueries: 100,
		CoordMax:   3000,
		SizeMin:    1,
		SizeMax:    100,
		Seed:       2003, // the paper's publication year; any seed reproduces the shape
	}
}

// Scaled returns the paper parameters shrunk by factor k (for fast test
// runs); k = 1 is the paper scale.
func Scaled(k int) Params {
	p := Paper()
	if k > 1 {
		p.NumData /= k
		p.NumQueries /= k
		if p.NumQueries < 10 {
			p.NumQueries = 10
		}
	}
	return p
}

// rect draws one rectangle per the paper's recipe: upper-left corner
// uniform in [0, CoordMax]², width and height uniform in
// [SizeMin, SizeMax].
func rect(rng *rand.Rand, p Params) rstar.Rect {
	x := rng.Float64() * p.CoordMax
	y := rng.Float64() * p.CoordMax
	w := p.SizeMin + rng.Float64()*(p.SizeMax-p.SizeMin)
	h := p.SizeMin + rng.Float64()*(p.SizeMax-p.SizeMin)
	return rstar.Rect2(x, y, x+w, y+h)
}

// point draws a degenerate rectangle (a single value per attribute) — the
// relational-attribute variant.
func point(rng *rand.Rand, p Params) rstar.Rect {
	x := rng.Float64() * p.CoordMax
	y := rng.Float64() * p.CoordMax
	return rstar.Rect2(x, y, x, y)
}

// Boxes generates the data file for the constraint-attribute experiments
// (1-A, 2-A): proper bounding boxes.
func Boxes(p Params) []rstar.Rect {
	rng := rand.New(rand.NewSource(p.Seed))
	out := make([]rstar.Rect, p.NumData)
	for i := range out {
		out[i] = rect(rng, p)
	}
	return out
}

// Points generates the data file for the relational-attribute experiments
// (1-B, 2-B): degenerate boxes (single values).
func Points(p Params) []rstar.Rect {
	rng := rand.New(rand.NewSource(p.Seed))
	out := make([]rstar.Rect, p.NumData)
	for i := range out {
		out[i] = point(rng, p)
	}
	return out
}

// TwoAttrQueries generates the query file for the two-attribute
// experiments (Figure 4): full rectangles restricting both x and y.
func TwoAttrQueries(p Params) []rstar.Rect {
	rng := rand.New(rand.NewSource(p.Seed + 1))
	out := make([]rstar.Rect, p.NumQueries)
	for i := range out {
		out[i] = rect(rng, p)
	}
	return out
}

// OneAttrQueries generates the query file for the one-attribute
// experiments (Figure 5): each query restricts only the given dimension;
// the other is unbounded ("the bound of the other attribute is set from
// minimum to maximum").
func OneAttrQueries(p Params, dim int) []rstar.Rect {
	rng := rand.New(rand.NewSource(p.Seed + 2))
	out := make([]rstar.Rect, p.NumQueries)
	for i := range out {
		lo := rng.Float64() * p.CoordMax
		length := p.SizeMin + rng.Float64()*(p.SizeMax-p.SizeMin)
		out[i] = rstar.UnboundedQuery(2, map[int][2]float64{dim: {lo, lo + length}})
	}
	return out
}

// MixedQueries generates the inferred experiment-3 workload: each query is
// randomly a one-attribute (either dimension) or two-attribute rectangle.
func MixedQueries(p Params) []rstar.Rect {
	rng := rand.New(rand.NewSource(p.Seed + 3))
	out := make([]rstar.Rect, p.NumQueries)
	for i := range out {
		switch rng.Intn(3) {
		case 0:
			out[i] = rect(rng, p)
		case 1:
			lo := rng.Float64() * p.CoordMax
			length := p.SizeMin + rng.Float64()*(p.SizeMax-p.SizeMin)
			out[i] = rstar.UnboundedQuery(2, map[int][2]float64{0: {lo, lo + length}})
		default:
			lo := rng.Float64() * p.CoordMax
			length := p.SizeMin + rng.Float64()*(p.SizeMax-p.SizeMin)
			out[i] = rstar.UnboundedQuery(2, map[int][2]float64{1: {lo, lo + length}})
		}
	}
	return out
}

// DiagonalBoxes generates the §5.3 adversarial corner-case data: boxes
// hugging the main diagonal, so that "x small" and "y large" are each
// ~50% selective but their conjunction is almost empty.
func DiagonalBoxes(p Params) []rstar.Rect {
	rng := rand.New(rand.NewSource(p.Seed + 4))
	out := make([]rstar.Rect, p.NumData)
	for i := range out {
		base := rng.Float64() * p.CoordMax
		w := p.SizeMin + rng.Float64()*(p.SizeMax-p.SizeMin)
		h := p.SizeMin + rng.Float64()*(p.SizeMax-p.SizeMin)
		out[i] = rstar.Rect2(base, base, base+w, base+h)
	}
	return out
}

// Canonical returns r as a session holds it — loaded from a file, restored
// from a snapshot or produced by an operator: every constraint part in
// canonical form with its memo attached (envelope, box bit, polygon form).
// The generators below hand out tuples as built; fixtures that exercise what
// the engine memoises per tuple wrap them in this.
func Canonical(r *relation.Relation) *relation.Relation {
	out := relation.New(r.Schema())
	for _, t := range r.Tuples() {
		out.MustAdd(t.Canon())
	}
	return out
}

// BoxRelation materialises the first n workload rectangles as a
// heterogeneous constraint relation over the schema
// (id string relational, x rational constraint, y rational constraint):
// each box becomes the constraint tuple lo_x <= x <= hi_x, lo_y <= y <=
// hi_y with coordinates rounded to integers (keeping the exact rational
// arithmetic cheap). It is the bridge from the §5.4 workload generator to
// the CQA operator benchmarks and the parallel-equivalence tests.
//
// idMod controls the relational part: ids repeat modulo idMod so joins
// and differences find matching relational parts (idMod <= 0 gives every
// tuple a unique id), and every seventh tuple leaves id NULL so the
// narrow NULL semantics paths are exercised too.
func BoxRelation(p Params, n, idMod int) *relation.Relation {
	boxes := Boxes(p)
	if n > len(boxes) {
		n = len(boxes)
	}
	s := schema.MustNew(schema.Rel("id", schema.String), schema.Con("x"), schema.Con("y"))
	r := relation.New(s)
	for i := 0; i < n; i++ {
		b := boxes[i]
		rvals := map[string]relation.Value{}
		if i%7 != 0 {
			id := i
			if idMod > 0 {
				id = i % idMod
			}
			rvals["id"] = relation.Str(fmt.Sprintf("b%d", id))
		}
		con := constraint.And(
			constraint.GeConst("x", rational.FromInt(int64(b.Min[0]))),
			constraint.LeConst("x", rational.FromInt(int64(b.Max[0]))),
			constraint.GeConst("y", rational.FromInt(int64(b.Min[1]))),
			constraint.LeConst("y", rational.FromInt(int64(b.Max[1]))),
		)
		r.MustAdd(relation.NewTuple(rvals, con))
	}
	return r
}

// boxTuple materialises one rectangle as a constraint tuple over the
// BoxRelation schema, with the relational id left NULL when id is empty.
func boxTuple(b rstar.Rect, id string) relation.Tuple {
	rvals := map[string]relation.Value{}
	if id != "" {
		rvals["id"] = relation.Str(id)
	}
	con := constraint.And(
		constraint.GeConst("x", rational.FromInt(int64(b.Min[0]))),
		constraint.LeConst("x", rational.FromInt(int64(b.Max[0]))),
		constraint.GeConst("y", rational.FromInt(int64(b.Min[1]))),
		constraint.LeConst("y", rational.FromInt(int64(b.Max[1]))),
	)
	return relation.NewTuple(rvals, con)
}

// SkewedBoxRelation is the BoxRelation variant with a Zipf-skewed
// relational part: ids are drawn from idBuckets values with exponent 1.5
// (a few very popular ids, a long tail of rare ones), and every eleventh
// tuple leaves id NULL. Boxes still spread over the full coordinate
// range, so relational-part partitioning — not constraint geometry — is
// what separates the tuples. Deterministic in p.Seed.
func SkewedBoxRelation(p Params, n, idBuckets int) *relation.Relation {
	if idBuckets < 1 {
		idBuckets = 1
	}
	rng := rand.New(rand.NewSource(p.Seed + 5))
	zipf := rand.NewZipf(rng, 1.5, 1, uint64(idBuckets-1))
	boxes := Boxes(p)
	if n > len(boxes) {
		n = len(boxes)
	}
	s := schema.MustNew(schema.Rel("id", schema.String), schema.Con("x"), schema.Con("y"))
	r := relation.New(s)
	for i := 0; i < n; i++ {
		id := ""
		if i%11 != 0 {
			id = fmt.Sprintf("s%d", zipf.Uint64())
		}
		r.MustAdd(boxTuple(boxes[i], id))
	}
	return r
}

// ClusteredBoxRelation is the BoxRelation variant with spatially
// clustered constraint parts and an all-NULL relational part: boxes
// gather around `clusters` shared centers (Gaussian spread around each),
// so envelope pruning — not relational partitioning — separates the
// tuples. centerSeed draws the cluster centers independently of p.Seed,
// so two relations built with different p.Seed but the same centerSeed
// share cluster geography (their clusters overlap; everything else is
// disjoint). Deterministic in both seeds.
func ClusteredBoxRelation(p Params, n, clusters int, spread float64, centerSeed int64) *relation.Relation {
	if clusters < 1 {
		clusters = 1
	}
	crng := rand.New(rand.NewSource(centerSeed))
	type center struct{ x, y float64 }
	centers := make([]center, clusters)
	for i := range centers {
		centers[i] = center{crng.Float64() * p.CoordMax, crng.Float64() * p.CoordMax}
	}
	rng := rand.New(rand.NewSource(p.Seed + 6))
	s := schema.MustNew(schema.Rel("id", schema.String), schema.Con("x"), schema.Con("y"))
	r := relation.New(s)
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > p.CoordMax {
			return p.CoordMax
		}
		return v
	}
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(clusters)]
		x := clamp(c.x + rng.NormFloat64()*spread)
		y := clamp(c.y + rng.NormFloat64()*spread)
		w := p.SizeMin + rng.Float64()*(p.SizeMax-p.SizeMin)
		h := p.SizeMin + rng.Float64()*(p.SizeMax-p.SizeMin)
		r.MustAdd(boxTuple(rstar.Rect2(x, y, x+w, y+h), ""))
	}
	return r
}
