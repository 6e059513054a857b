package spatial

import (
	"fmt"
	"sort"

	"cdb/internal/constraint"
	"cdb/internal/convert"
	"cdb/internal/geometry"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/rstar"
	"cdb/internal/schema"
)

// Feature is one spatial feature: a unique ID plus its geometry.
type Feature struct {
	ID   string
	Geom Geometry
}

// Layer is a set of features with unique IDs — the vector-side view of a
// spatial constraint relation (§4.2: a relation whose only non-spatial
// attribute is the feature ID).
type Layer struct {
	name     string
	features []Feature
	byID     map[string]int
}

// NewLayer returns an empty named layer.
func NewLayer(name string) *Layer {
	return &Layer{name: name, byID: map[string]int{}}
}

// Name returns the layer's name.
func (l *Layer) Name() string { return l.name }

// Add appends a feature; IDs must be unique and non-empty.
func (l *Layer) Add(f Feature) error {
	if f.ID == "" {
		return fmt.Errorf("spatial: empty feature id")
	}
	if _, dup := l.byID[f.ID]; dup {
		return fmt.Errorf("spatial: duplicate feature id %q", f.ID)
	}
	l.byID[f.ID] = len(l.features)
	l.features = append(l.features, f)
	return nil
}

// MustAdd is like Add but panics on error (fixture helper).
func (l *Layer) MustAdd(f Feature) {
	if err := l.Add(f); err != nil {
		panic(err)
	}
}

// Len returns the number of features.
func (l *Layer) Len() int { return len(l.features) }

// Features returns the features in insertion order. The result must not be
// mutated.
func (l *Layer) Features() []Feature { return l.features }

// Get returns the feature with the given ID.
func (l *Layer) Get(id string) (Feature, bool) {
	i, ok := l.byID[id]
	if !ok {
		return Feature{}, false
	}
	return l.features[i], true
}

// Pair is one result row of Buffer-Join: two feature IDs within the join
// distance.
type Pair struct {
	Left, Right string
}

// BufferJoin returns all pairs (a ∈ l, b ∈ o) with dist(a, b) <= d — the
// paper's Buffer-Join (Example 5: towns within 5 miles of the hurricane's
// path). The result is a relation over feature IDs: safe by construction.
// Pairs are returned in deterministic (Left, Right) order.
func BufferJoin(l, o *Layer, d rational.Rat) ([]Pair, error) {
	if d.Sign() < 0 {
		return nil, fmt.Errorf("spatial: negative buffer distance %s", d)
	}
	d2 := d.Mul(d)
	var out []Pair
	for _, fa := range l.features {
		aMinX, aMinY, aMaxX, aMaxY := fa.Geom.BBox()
		for _, fb := range o.features {
			// Conservative bbox prefilter: if the boxes are farther than d
			// apart the exact test cannot pass.
			bMinX, bMinY, bMaxX, bMaxY := fb.Geom.BBox()
			if bboxGapSq(aMinX, aMinY, aMaxX, aMaxY, bMinX, bMinY, bMaxX, bMaxY).Cmp(d2) > 0 {
				continue
			}
			if SqDist(fa.Geom, fb.Geom).LessEq(d2) {
				out = append(out, Pair{Left: fa.ID, Right: fb.ID})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Left != out[j].Left {
			return out[i].Left < out[j].Left
		}
		return out[i].Right < out[j].Right
	})
	return out, nil
}

// bboxGapSq returns the squared distance between two axis-aligned boxes
// (zero when they overlap).
func bboxGapSq(aMinX, aMinY, aMaxX, aMaxY, bMinX, bMinY, bMaxX, bMaxY rational.Rat) rational.Rat {
	gap := func(alo, ahi, blo, bhi rational.Rat) rational.Rat {
		if ahi.Less(blo) {
			return blo.Sub(ahi)
		}
		if bhi.Less(alo) {
			return alo.Sub(bhi)
		}
		return rational.Zero
	}
	gx := gap(aMinX, aMaxX, bMinX, bMaxX)
	gy := gap(aMinY, aMaxY, bMinY, bMaxY)
	return gx.Mul(gx).Add(gy.Mul(gy))
}

// BufferJoinIndexed is BufferJoin accelerated by an R*-tree over the right
// layer's bounding boxes: each left feature queries the tree with its
// d-expanded box, then refines candidates exactly. It returns the pairs
// plus the number of index page accesses (for the index-layer benches).
func BufferJoinIndexed(l, o *Layer, d rational.Rat) ([]Pair, uint64, error) {
	if d.Sign() < 0 {
		return nil, 0, fmt.Errorf("spatial: negative buffer distance %s", d)
	}
	idx, err := rstar.NewJointIndex(2, 0, rstar.Options{})
	if err != nil {
		return nil, 0, err
	}
	for i, fb := range o.features {
		minX, minY, maxX, maxY := fb.Geom.BBox()
		r, err := rstar.NewRect(
			[]float64{floorF(minX), floorF(minY)},
			[]float64{ceilF(maxX), ceilF(maxY)})
		if err != nil {
			return nil, 0, err
		}
		if err := idx.Add(r, int64(i)); err != nil {
			return nil, 0, err
		}
	}
	d2 := d.Mul(d)
	df := ceilF(d)
	var out []Pair
	var accesses uint64
	for _, fa := range l.features {
		minX, minY, maxX, maxY := fa.Geom.BBox()
		q, err := rstar.NewRect(
			[]float64{floorF(minX) - df, floorF(minY) - df},
			[]float64{ceilF(maxX) + df, ceilF(maxY) + df})
		if err != nil {
			return nil, 0, err
		}
		cands, acc, err := idx.Query(q)
		if err != nil {
			return nil, 0, err
		}
		accesses += acc
		for _, c := range cands {
			fb := o.features[c]
			if SqDist(fa.Geom, fb.Geom).LessEq(d2) {
				out = append(out, Pair{Left: fa.ID, Right: fb.ID})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Left != out[j].Left {
			return out[i].Left < out[j].Left
		}
		return out[i].Right < out[j].Right
	})
	return out, accesses, nil
}

// floorF returns a float64 lower bound of r (conservative out-rounding).
func floorF(r rational.Rat) float64 {
	f, _ := r.Float64()
	// Nudge down one ulp-scale step to stay conservative.
	return f - absF(f)*1e-12 - 1e-300
}

// ceilF returns a float64 upper bound of r.
func ceilF(r rational.Rat) float64 {
	f, _ := r.Float64()
	return f + absF(f)*1e-12 + 1e-300
}

func absF(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// Neighbor is one result row of k-Nearest: a feature ID plus its exact
// squared distance to the query.
type Neighbor struct {
	ID     string
	SqDist rational.Rat
}

// KNearest returns the k features of l nearest to the query geometry — the
// paper's k-Nearest whole-feature operator (Example 6: the 3 hospitals
// nearest to a town). Ordering is by exact squared distance, ties broken
// by feature ID for determinism. Fewer than k features yields them all.
func KNearest(l *Layer, q Geometry, k int) ([]Neighbor, error) {
	if k < 0 {
		return nil, fmt.Errorf("spatial: negative k")
	}
	all := make([]Neighbor, 0, len(l.features))
	for _, f := range l.features {
		all = append(all, Neighbor{ID: f.ID, SqDist: SqDist(f.Geom, q)})
	}
	sort.Slice(all, func(i, j int) bool {
		if c := all[i].SqDist.Cmp(all[j].SqDist); c != 0 {
			return c < 0
		}
		return all[i].ID < all[j].ID
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k], nil
}

// Distance returns the (approximate, display-only) Euclidean distance
// between two geometries. The exact object is the squared distance — this
// float is what makes raw distance *unsafe* as query output, which is why
// the query layer only exposes the whole-feature operators.
func Distance(a, b Geometry) float64 {
	d, _ := SqDist(a, b).Float64()
	return sqrtF(d)
}

func sqrtF(f float64) float64 {
	if f <= 0 {
		return 0
	}
	// Newton iteration: precise enough for display, no math import cycle
	// concerns (math.Sqrt would be fine too; keep the dependency anyway).
	x := f
	for i := 0; i < 64; i++ {
		nx := (x + f/x) / 2
		if nx == x {
			break
		}
		x = nx
	}
	return x
}

// SpatialSchema returns the spatial constraint relation schema of §4.2:
// [fid: string, relational; x, y: rational, constraint].
func SpatialSchema(fidName, xVar, yVar string) schema.Schema {
	return schema.MustNew(schema.Rel(fidName, schema.String), schema.Con(xVar), schema.Con(yVar))
}

// ToRelation converts the layer into a spatial constraint relation: one or
// more constraint tuples per feature, all sharing the feature's ID — the
// §4.2 representation whose only non-spatial attribute is the feature ID.
func ToRelation(l *Layer, fidName, xVar, yVar string) (*relation.Relation, error) {
	out := relation.New(SpatialSchema(fidName, xVar, yVar))
	for _, f := range l.features {
		var cons []constraint.Conjunction
		switch f.Geom.Kind() {
		case KindPoint:
			cons = []constraint.Conjunction{convert.PointToConjunction(f.Geom.Point(), xVar, yVar)}
		case KindLine:
			cons = convert.PolylineToConjunctions(f.Geom.Line(), xVar, yVar)
		default:
			var err error
			cons, err = convert.PolygonToConjunctions(f.Geom.Region(), xVar, yVar)
			if err != nil {
				return nil, fmt.Errorf("spatial: feature %q: %w", f.ID, err)
			}
		}
		for _, con := range cons {
			if err := out.Add(relation.NewTuple(
				map[string]relation.Value{fidName: relation.Str(f.ID)}, con)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// FromRelation reconstructs a layer from a spatial constraint relation:
// tuples sharing a feature ID are interpreted as the union of their
// regions. Two reconstruction modes:
//
//   - mergeHull = true: all of a feature's pieces merge into one feature
//     whose region is the convex hull of their vertices (lossy for
//     concave features — use RelationGeometries when exact per-piece
//     geometry matters);
//   - mergeHull = false: each constraint tuple becomes its own feature;
//     multi-piece features get "id#1", "id#2", ... suffixes.
//
// Full-dimensional pieces become region features, collinear pieces line
// features, single-point pieces point features.
func FromRelation(r *relation.Relation, fidName, xVar, yVar string, mergeHull bool) (*Layer, error) {
	layer := NewLayer("from-" + fidName)
	groups := map[string][]constraint.Conjunction{}
	var order []string
	for _, t := range r.Tuples() {
		idV, ok := t.RVal(fidName)
		if !ok {
			return nil, fmt.Errorf("spatial: tuple with NULL feature id")
		}
		id, _ := idV.AsString()
		if _, seen := groups[id]; !seen {
			order = append(order, id)
		}
		groups[id] = append(groups[id], t.Constraint())
	}
	for _, id := range order {
		cons := groups[id]
		if mergeHull {
			var pts []geometry.Point
			for _, con := range cons {
				vs, err := convert.ConjunctionVertices(con, xVar, yVar)
				if err != nil {
					return nil, fmt.Errorf("spatial: feature %q: %w", id, err)
				}
				pts = append(pts, vs...)
			}
			hull, err := geometry.ConvexHull(pts)
			if err != nil {
				// Degenerate: a segment or point feature.
				if seg, serr := segmentFromPoints(pts); serr == nil {
					layer.MustAdd(Feature{ID: id, Geom: LineGeom(geometry.MustPolyline(seg.A, seg.B))})
					continue
				}
				if len(pts) > 0 {
					layer.MustAdd(Feature{ID: id, Geom: PointGeom(pts[0])})
					continue
				}
				return nil, fmt.Errorf("spatial: feature %q: %w", id, err)
			}
			layer.MustAdd(Feature{ID: id, Geom: RegionGeom(hull)})
			continue
		}
		for i, con := range cons {
			fid := id
			if len(cons) > 1 {
				fid = fmt.Sprintf("%s#%d", id, i+1)
			}
			poly, err := convert.ConjunctionToPolygon(con, xVar, yVar)
			if err == nil {
				layer.MustAdd(Feature{ID: fid, Geom: RegionGeom(poly)})
				continue
			}
			seg, serr := convert.ConjunctionToSegment(con, xVar, yVar)
			if serr == nil {
				layer.MustAdd(Feature{ID: fid, Geom: LineGeom(geometry.MustPolyline(seg.A, seg.B))})
				continue
			}
			vs, verr := convert.ConjunctionVertices(con, xVar, yVar)
			if verr != nil || len(vs) == 0 {
				return nil, fmt.Errorf("spatial: feature %q piece %d: %v", id, i, err)
			}
			layer.MustAdd(Feature{ID: fid, Geom: PointGeom(vs[0])})
		}
	}
	return layer, nil
}

func segmentFromPoints(pts []geometry.Point) (geometry.Segment, error) {
	if len(pts) < 2 {
		return geometry.Segment{}, fmt.Errorf("spatial: not a segment")
	}
	bi, bk := 0, 1
	best := pts[0].SqDist(pts[1])
	for i := range pts {
		for k := i + 1; k < len(pts); k++ {
			if d := pts[i].SqDist(pts[k]); best.Less(d) {
				bi, bk, best = i, k, d
			}
		}
	}
	if best.IsZero() {
		return geometry.Segment{}, fmt.Errorf("spatial: all points coincide")
	}
	for _, p := range pts {
		if geometry.Orientation(pts[bi], pts[bk], p) != 0 {
			return geometry.Segment{}, fmt.Errorf("spatial: points not collinear")
		}
	}
	return geometry.Segment{A: pts[bi], B: pts[bk]}, nil
}

// PairsToRelation materialises Buffer-Join output as a relation over two
// relational string attributes — the safe, closed form the paper requires.
func PairsToRelation(pairs []Pair, leftName, rightName string) (*relation.Relation, error) {
	s, err := schema.New(schema.Rel(leftName, schema.String), schema.Rel(rightName, schema.String))
	if err != nil {
		return nil, err
	}
	out := relation.New(s)
	for _, p := range pairs {
		if err := out.Add(relation.NewTuple(map[string]relation.Value{
			leftName:  relation.Str(p.Left),
			rightName: relation.Str(p.Right),
		}, constraint.True())); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// NeighborsToRelation materialises k-Nearest output as a relation with the
// feature ID and its rank (1-based) — again safe relational data.
func NeighborsToRelation(ns []Neighbor, fidName, rankName string) (*relation.Relation, error) {
	s, err := schema.New(schema.Rel(fidName, schema.String), schema.Rel(rankName, schema.Rational))
	if err != nil {
		return nil, err
	}
	out := relation.New(s)
	for i, n := range ns {
		if err := out.Add(relation.NewTuple(map[string]relation.Value{
			fidName:  relation.Str(n.ID),
			rankName: relation.Rat(rational.FromInt(int64(i + 1))),
		}, constraint.True())); err != nil {
			return nil, err
		}
	}
	return out, nil
}
