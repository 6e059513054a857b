package cdb

import (
	"testing"

	"cdb/internal/cqa"
)

// cqaAttrGe builds "attr >= k" through the algebra's atom constructors.
func cqaAttrGe(attr string, k Rat) cqa.Atom {
	return cqa.AttrCmpConst(attr, cqa.OpGe, k)
}

// TestFacadeEndToEnd drives the whole system through the public facade
// only: build a heterogeneous database, query it in the ASCII language,
// run spatial operators, and touch the index layer.
func TestFacadeEndToEnd(t *testing.T) {
	land := NewRelation(MustSchema(
		Rel("landId", String), Con("x"), Con("y")))
	cs, err := ParseConstraints("x >= 0, x <= 4, y >= 0, y <= 4")
	if err != nil {
		t.Fatal(err)
	}
	land.MustAdd(NewTuple(map[string]Value{"landId": Str("A")}, And(cs...)))
	cs2, _ := ParseConstraints("x >= 5, x <= 9, y >= 0, y <= 4")
	land.MustAdd(NewTuple(map[string]Value{"landId": Str("B")}, And(cs2...)))

	d := NewDatabase()
	if err := d.Put("Land", land); err != nil {
		t.Fatal(err)
	}
	out, err := d.Run(`
R0 = select x >= 1, x + y <= 5 from Land
R1 = project R0 on landId, x`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A contributes x in [1,4]; B's corner (5,0) also satisfies x+y <= 5,
	// pinning x to exactly 5 in the projected tuple.
	if out.Len() != 2 {
		t.Fatalf("query result:\n%s", out)
	}
	for _, tp := range out.Tuples() {
		id, _ := tp.RVal("landId")
		iv, ok := tp.Constraint().VarBounds("x")
		if !ok {
			t.Fatalf("unsat tuple: %s", tp)
		}
		switch s, _ := id.AsString(); s {
		case "A":
			if !iv.Lower.Equal(RatFromInt(1)) || !iv.Upper.Equal(RatFromInt(4)) {
				t.Errorf("A bounds = %+v", iv)
			}
		case "B":
			if !iv.IsPoint() || !iv.Lower.Equal(RatFromInt(5)) {
				t.Errorf("B bounds = %+v", iv)
			}
		default:
			t.Errorf("unexpected id %s", id)
		}
	}

	// Algebra functions re-exported.
	sel, err := Select(nil, land, Condition{})
	if err != nil || sel.Len() != 2 {
		t.Errorf("empty-condition select: %v %v", sel.Len(), err)
	}
	ren, err := Rename(nil, land, map[string]string{"x": "lon"})
	if err != nil || !ren.Schema().Has("lon") {
		t.Errorf("rename: %v", err)
	}
	diff, err := Difference(nil, land, land)
	if err != nil || diff.Len() != 0 {
		t.Errorf("self difference: %d, %v", diff.Len(), err)
	}

	// Spatial layer.
	layer := NewLayer("parcels")
	poly, err := NewPolygon([]Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)})
	if err != nil {
		t.Fatal(err)
	}
	layer.MustAdd(Feature{ID: "A", Geom: RegionGeom(poly)})
	layer.MustAdd(Feature{ID: "P", Geom: PointGeom(Pt(10, 0))})
	pairs, err := BufferJoin(layer, layer, RatFromInt(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 4 {
		t.Errorf("buffer join pairs = %v", pairs)
	}
	ns, err := KNearest(layer, PointGeom(Pt(9, 0)), 1)
	if err != nil || len(ns) != 1 || ns[0].ID != "P" {
		t.Errorf("k nearest = %v, %v", ns, err)
	}
	if !SqDist(PointGeom(Pt(0, 0)), PointGeom(Pt(3, 4))).Equal(RatFromInt(25)) {
		t.Error("SqDist wrong")
	}
	if d := DistanceApprox(PointGeom(Pt(0, 0)), PointGeom(Pt(3, 4))); d < 4.999 || d > 5.001 {
		t.Errorf("DistanceApprox = %g", d)
	}

	// Index layer.
	joint, err := NewJointIndex(2, 0, RStarOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := joint.Add(Rect2(float64(i), 0, float64(i)+1, 1), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Boxes [9,10], [10,11], [11,12], [12,13] all touch [10,12] (closed
	// rectangles intersect at shared edges).
	ids, accesses, err := joint.Query(Rect2(10, 0, 12, 1))
	if err != nil || len(ids) != 4 || accesses == 0 {
		t.Errorf("index query: %v ids, %d accesses, %v", ids, accesses, err)
	}

	// Rationals.
	if !MustRat("2/4").Equal(MustRat("1/2")) {
		t.Error("rational equality")
	}
	if _, err := ParseRat("zebra"); err == nil {
		t.Error("ParseRat accepted garbage")
	}
}

// TestFacadeModelAndAlgebra exercises the facade's narrow core: the
// heterogeneous data model and two CQA operators over it.
func TestFacadeModelAndAlgebra(t *testing.T) {
	s, err := NewSchema(Rel("id", String), Con("x"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRelation(s)
	cs, _ := ParseConstraints("x >= 0, x <= 1")
	r.MustAdd(NewTuple(map[string]Value{"id": Str("a")}, And(cs...)))
	got, err := Project(nil, r, "x")
	if err != nil || got.Len() != 1 {
		t.Fatalf("project: %v %v", got, err)
	}
	u, err := Union(nil, r, r)
	if err != nil || u.Len() != 1 {
		t.Errorf("union: %v %v", u, err)
	}
}

// TestExperimentRunnersExported smoke-tests the re-exported experiment
// API at tiny scale.
func TestExperimentRunnersExported(t *testing.T) {
	p := PaperWorkload()
	p.NumData, p.NumQueries = 300, 10
	s, err := Figure4A(p, 512)
	if err != nil {
		t.Fatal(err)
	}
	j, sep, _ := s.Totals()
	if j == 0 || sep == 0 {
		t.Errorf("totals: %d %d", j, sep)
	}
	if s2, err := CornerCase(p, 512); err != nil || len(s2.Costs) == 0 {
		t.Errorf("corner: %v", err)
	}
}

// TestNestedAndIndefiniteFacade drives the §6 nested representation and
// the §3.1 indefinite-information extension through the facade.
func TestNestedAndIndefiniteFacade(t *testing.T) {
	s := MustSchema(Rel("id", String), Con("x"))
	flat := NewRelation(s)
	cs1, _ := ParseConstraints("x >= 0, x <= 1")
	cs2, _ := ParseConstraints("x >= 2, x <= 3")
	flat.MustAdd(NewTuple(map[string]Value{"id": Str("f")}, And(cs1...)))
	flat.MustAdd(NewTuple(map[string]Value{"id": Str("f")}, And(cs2...)))

	n := Nest(flat)
	if n.Len() != 1 || len(n.Tuples()[0].Extent()) != 2 {
		t.Fatalf("nested: %s", n)
	}
	back, err := n.Unnest()
	if err != nil || !back.Equivalent(flat) {
		t.Errorf("unnest: %v", err)
	}

	ind, err := NewIndefinite(flat)
	if err != nil {
		t.Fatal(err)
	}
	cond := Condition{cqaAttrGe("x", RatFromInt(1))}
	poss, err := ind.Select(cond, Possibly)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ind.Select(cond, Certainly)
	if err != nil {
		t.Fatal(err)
	}
	// x >= 1: the [0,1] tuple possibly (x could be 1) but not certainly;
	// the [2,3] tuple certainly.
	if poss.Len() != 2 || cert.Len() != 1 {
		t.Errorf("possible %d, certain %d", poss.Len(), cert.Len())
	}
}
