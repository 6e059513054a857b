package main

import (
	"fmt"
	"math/rand"

	"cdb/internal/constraint"
	"cdb/internal/datagen"
	"cdb/internal/db"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// request is one entry of a workload's request pool: a POST /v1/query
// body plus the digest the reference path computed for its result.
type request struct {
	Query  string // query-language program ("" when Rules is set)
	Rules  string // calculus program
	Target string // session binding for a Rules result ("" = none)
	Stream bool   // ask for the NDJSON response
	want   string // reference digest, filled by computeReference
}

// workload is one set of inputs the benchmark runs. The sizes are frozen:
// they were tuned once on the seed commit so latency_p50_ms lands in the
// band stated in README.md, and a later change may not retune them.
type workload struct {
	name string
	why  string // one line, repeated in BENCHMARK.json

	// build generates the database and the request pool from the seed.
	// pool is the number of pool entries wanted (the frozen size, or the
	// smoke test's smaller one).
	build func(seed int64, pool int) (*db.Database, []request)
	pool  int // frozen request-pool size

	// tracePool caps the requests the traced pass replays, so that its
	// four in-process passes stay within a few seconds.
	tracePool int

	// churn marks the storage workload: the daemon runs with
	// -snapshot-dir and one operation is a whole session/snapshot/fork
	// life cycle (see churnOp) instead of a single query.
	churn bool

	// probe names the two relations whose candidate tuple pairs feed the
	// kernel probes, and the constraint attributes a projection keeps.
	probeLeft, probeRight string
	probeKeep             []string
}

var workloads = []workload{
	{
		name: "lookup",
		why:  "small selects on the scaled hurricane db: the only workload where HTTP, JSON, session and parse are a visible share",
		build: func(seed int64, pool int) (*db.Database, []request) {
			d := hurricaneDB(seed, 5)
			return d, lookupPool(seed, 5, pool)
		},
		pool: 256, tracePool: 64,
		probeLeft: "Landownership", probeRight: "Land", probeKeep: []string{"t"},
	},
	{
		name: "hurricane",
		why:  "paper Query 3 at 8x8 parcels: 3-variable conjunctions, so Fourier-Motzkin, the sat-cache and the pair filter decide",
		build: func(seed int64, pool int) (*db.Database, []request) {
			d := hurricaneDB(seed, 8)
			return d, hurricanePool(seed, pool)
		},
		pool: 64, tracePool: 24,
		probeLeft: "Landownership", probeRight: "Hurricane", probeKeep: nil,
	},
	{
		name:  "box-join",
		why:   "dense one-cluster 2-variable boxes: little pruning, vector path, big outputs; merge, canon, dedup and encoding dominate",
		build: boxJoinWorkload,
		pool:  48, tracePool: 24,
		probeLeft: "A0", probeRight: "B0", probeKeep: []string{"x"},
	},
	{
		name:  "polygon-minus",
		why:   "difference of convex and triangulated-concave polygons: DNF staircase, re-canonicalisation and piece fan-out",
		build: polygonMinusWorkload,
		pool:  24, tracePool: 12,
		probeLeft: "C0", probeRight: "D0", probeKeep: []string{"x"},
	},
	{
		name: "snapshot-churn",
		why:  "session, snapshot commit, fork, materialise and release beside reads: the only workload on the storage layers",
		build: func(seed int64, pool int) (*db.Database, []request) {
			d := hurricaneDB(seed, 5)
			p := boxParams(seed + 40)
			mustPut(d, "Boxes", datagen.BoxRelation(p, churnBoxTuples, 0))
			return d, lookupPool(seed, 5, pool)
		},
		pool: 96, tracePool: 16, churn: true,
		probeLeft: "Landownership", probeRight: "Land", probeKeep: []string{"t"},
	},
}

// Frozen sizes (see workload).
const (
	horizon       = 40 // hurricane time axis: t in [0, horizon]
	windowLen     = 10 // Query 3 selects t in [a, a+windowLen]
	cell          = 6  // parcel pitch on the x and y axes
	trackSegments = 8
	boxTuples     = 20 // box-join: tuples per relation
	boxRelations  = 4  // box-join: relations per side
	// polygon-minus: relations per side, clusters per relation, tuples per
	// cluster, and the half-width of a cluster.
	convexPerSide     = 16
	concavePerSide    = 4
	polygonClusters   = 12
	convexPerCluster  = 2
	concavePerCluster = 3
	polygonSpread     = 60
	churnBoxTuples    = 1536
)

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func mustPut(d *db.Database, name string, r *relation.Relation) {
	if err := d.Put(name, r); err != nil {
		panic(err) // generator bug: names are fixed and distinct
	}
}

func ratInt(n int) rational.Rat { return rational.FromInt(int64(n)) }

func parcelID(i, j int) string { return fmt.Sprintf("P%d_%d", i, j) }

// hurricaneDB builds the paper's §3.3 Hurricane database scaled to
// grid x grid parcels: every parcel has three consecutive owners over the
// time axis, and an eight-segment piecewise-linear track crosses the grid
// along a jittered diagonal, so every seed hits a similar number of
// parcels.
func hurricaneDB(seed int64, grid int) *db.Database {
	rng := rand.New(rand.NewSource(seed*7919 + int64(grid)))
	d := db.New()

	land := relation.New(schema.MustNew(
		schema.Rel("landId", schema.String), schema.Con("x"), schema.Con("y")))
	owners := relation.New(schema.MustNew(
		schema.Rel("name", schema.String), schema.Con("t"),
		schema.Rel("landId", schema.String)))
	names := grid * grid // owner-name pool: projection on name dedups
	for i := 0; i < grid; i++ {
		for j := 0; j < grid; j++ {
			id := parcelID(i, j)
			x0, y0 := cell*i+rng.Intn(2), cell*j+rng.Intn(2)
			land.MustAdd(relation.NewTuple(
				map[string]relation.Value{"landId": relation.Str(id)},
				constraint.And(
					constraint.GeConst("x", ratInt(x0)), constraint.LeConst("x", ratInt(cell*i+cell-1)),
					constraint.GeConst("y", ratInt(y0)), constraint.LeConst("y", ratInt(cell*j+cell-1)))))
			c1, c2 := 8+rng.Intn(9), 22+rng.Intn(11)
			for _, iv := range [][2]int{{0, c1}, {c1 + 1, c2}, {c2 + 1, horizon}} {
				owners.MustAdd(relation.NewTuple(
					map[string]relation.Value{
						"name":   relation.Str(fmt.Sprintf("o%d", rng.Intn(names))),
						"landId": relation.Str(id),
					},
					constraint.And(
						constraint.GeConst("t", ratInt(iv[0])), constraint.LeConst("t", ratInt(iv[1])))))
			}
		}
	}
	mustPut(d, "Land", land)
	mustPut(d, "Landownership", owners)

	// Track: waypoint k sits at progress k/segments along the diagonal,
	// pushed sideways by at most one unit. With a jitter of a whole parcel
	// the segments' bounding boxes, hence the join's candidate pairs and
	// the query's cost, differ by 40 % between seeds; with half a parcel
	// the seeds still fall into two groups 8 % apart. Segment k covers
	// t in [k*dt, (k+1)*dt] with x and y linear in t.
	hurr := relation.New(schema.MustNew(schema.Con("t"), schema.Con("x"), schema.Con("y")))
	dt := horizon / trackSegments
	span := cell * grid
	type pt struct{ x, y int }
	way := make([]pt, trackSegments+1)
	for k := range way {
		along := span * k / trackSegments
		side := rng.Intn(3) - 1
		way[k] = pt{along + side, along - side}
	}
	for k := 0; k < trackSegments; k++ {
		t0 := k * dt
		line := func(v string, from, to int) constraint.Constraint {
			// v = from + (to-from)/dt * (t - t0)
			slope := rational.New(int64(to-from), int64(dt))
			return constraint.MustNew(constraint.Var(v), "=",
				constraint.Var("t").Sub(constraint.ConstInt(int64(t0))).Scale(slope).
					Add(constraint.ConstInt(int64(from))))
		}
		hurr.MustAdd(relation.ConstraintTuple(constraint.And(
			line("x", way[k].x, way[k+1].x),
			line("y", way[k].y, way[k+1].y),
			constraint.GeConst("t", ratInt(t0)), constraint.LeConst("t", ratInt(t0+dt)))))
	}
	mustPut(d, "Hurricane", hurr)
	return d
}

// lookupPool is n small single-relation requests. Five in eight select
// one parcel's owners in a t window (relational equality plus a
// 1-variable window); two in eight select a 2-variable x,y window on Land;
// one in eight asks the first kind as a single-atom calculus rule. The
// majority kind fixes where the median falls; one in eight is streamed.
func lookupPool(seed int64, grid, n int) []request {
	rng := rand.New(rand.NewSource(seed*104729 + 1))
	span := cell * grid
	pool := make([]request, n)
	for i := range pool {
		a := rng.Intn(horizon - windowLen + 1)
		id := parcelID(rng.Intn(grid), rng.Intn(grid))
		switch i % 8 {
		case 1, 5:
			w := 2 * cell
			x, y := rng.Intn(span-w+1), rng.Intn(span-w+1)
			pool[i].Query = fmt.Sprintf(`R = select x >= %d, x <= %d, y >= %d, y <= %d from Land`, x, x+w, y, y+w)
		case 3:
			pool[i].Rules = fmt.Sprintf(
				`owned(name, t) :- Landownership(name, t, id), id = "%s", t >= %d, t <= %d.`, id, a, a+windowLen)
		default:
			pool[i].Query = fmt.Sprintf(`R = select landId = "%s", t >= %d, t <= %d from Landownership`,
				id, a, a+windowLen)
		}
		pool[i].Stream = i%8 == 7
	}
	return pool
}

// hurricanePool is the paper's Query 3 over n time windows. It is all
// query-language: the equivalent 3-atom calculus rule evaluates as renamed
// cross products plus selections, costs an order of magnitude more and
// evicts the whole sat-cache (README.md, observations), so one in four of
// those would make this a calculus benchmark instead of the judge of
// Fourier-Motzkin and the sat-cache. lookup carries the calculus share.
func hurricanePool(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed*104729 + 2))
	pool := make([]request, n)
	for i := range pool {
		a := rng.Intn(horizon - windowLen + 1)
		pool[i] = request{Query: fmt.Sprintf(
			"R0 = join Landownership and Land\nR1 = join R0 and Hurricane\n"+
				"R2 = select t >= %d, t <= %d from R1\nR3 = project R2 on name", a, a+windowLen)}
	}
	return pool
}

// boxParams are the dense-cluster box parameters of cdbbench's prune and
// plan experiments: big boxes in one tight cluster, so nearly every pair
// overlaps.
func boxParams(seed int64) datagen.Params {
	p := datagen.Paper()
	p.SizeMin = 50
	p.Seed = seed
	return p
}

func boxJoinWorkload(seed int64, pool int) (*db.Database, []request) {
	d := db.New()
	centerSeed := seed*31 + 77
	for i := 0; i < boxRelations; i++ {
		mustPut(d, fmt.Sprintf("A%d", i),
			datagen.ClusteredBoxRelation(boxParams(seed*1000+int64(i)), boxTuples, 1, 10, centerSeed))
		mustPut(d, fmt.Sprintf("B%d", i),
			datagen.ClusteredBoxRelation(boxParams(seed*1000+500+int64(i)), boxTuples, 1, 10, centerSeed))
	}
	forms := []string{
		"R = join A%d and B%d",
		"R = intersect A%d and B%d",
		"R = project (join A%d and B%d) on x",
	}
	reqs := make([]request, pool)
	for i := range reqs {
		// The forms alternate, so that any stretch of the pool has the same mix.
		pair := (i / len(forms)) % (boxRelations * boxRelations)
		reqs[i] = request{
			Query:  fmt.Sprintf(forms[i%len(forms)], pair/boxRelations, pair%boxRelations),
			Stream: i%8 == 7,
		}
	}
	return d, reqs
}

// clusteredPolygons builds one polygon relation as the union of clusters
// one-cluster relations of perCluster tuples each. Cluster c of every
// relation of a seed shares its center, so a minuend overlaps exactly the
// subtrahend's tuples of the same cluster (clusters are small against the
// coordinate range and rarely touch). Drawing the cluster sizes at random,
// as datagen does on its own, makes the cost of a difference swing by a
// factor of three from seed to seed; fixing the occupancy leaves the
// shapes to vary.
func clusteredPolygons(seed int64, rel, perCluster int, gen func(datagen.Params, int, int, float64, int64) *relation.Relation) *relation.Relation {
	var out *relation.Relation
	for c := 0; c < polygonClusters; c++ {
		p := datagen.Paper()
		p.Seed = seed*100000 + int64(rel)*1000 + int64(c)
		r := gen(p, perCluster, 1, polygonSpread, seed*977+int64(c))
		if out == nil {
			out = relation.New(r.Schema())
		}
		for _, t := range r.Tuples() {
			out.MustAdd(t)
		}
	}
	return out
}

func polygonMinusWorkload(seed int64, pool int) (*db.Database, []request) {
	d := db.New()
	for i := 0; i < convexPerSide; i++ {
		mustPut(d, fmt.Sprintf("C%d", i), clusteredPolygons(seed, i, convexPerCluster, datagen.PolygonRelation))
		mustPut(d, fmt.Sprintf("D%d", i), clusteredPolygons(seed, 100+i, convexPerCluster, datagen.PolygonRelation))
	}
	for i := 0; i < concavePerSide; i++ {
		mustPut(d, fmt.Sprintf("S%d", i), clusteredPolygons(seed, 200+i, concavePerCluster, datagen.ConcavePolygonRelation))
		mustPut(d, fmt.Sprintf("T%d", i), clusteredPolygons(seed, 300+i, concavePerCluster, datagen.ConcavePolygonRelation))
	}
	// 16 convex pairs and the 4 concave pairs in both directions. No two
	// requests of a kind share a relation: with every pair of 4+4 relations
	// instead, one unusually costly relation sat in a quarter of the pool,
	// and the pool's cost moved by a fifth between seeds.
	var all []request
	for i := 0; i < convexPerSide; i++ {
		all = append(all, request{Query: fmt.Sprintf("R = minus C%d and D%d", i, i)})
	}
	for i := 0; i < concavePerSide; i++ {
		all = append(all, request{Query: fmt.Sprintf("R = minus S%d and T%d", i, i)})
	}
	for i := 0; i < concavePerSide; i++ {
		all = append(all, request{Query: fmt.Sprintf("R = minus T%d and S%d", i, i)})
	}
	// A smaller pool strides through the kinds instead of taking a prefix.
	reqs := make([]request, pool)
	for i := range reqs {
		reqs[i] = all[(i*len(all)/pool)%len(all)]
	}
	return d, reqs
}
