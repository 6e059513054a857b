package spatial

import (
	"math/rand"
	"testing"

	"cdb/internal/geometry"
	"cdb/internal/rational"
	"cdb/internal/relation"
)

func q(s string) rational.Rat { return rational.MustParse(s) }

// city builds a small test scenario: towns (regions), roads (lines),
// landmarks (points).
func towns() *Layer {
	l := NewLayer("towns")
	l.MustAdd(Feature{ID: "alpha", Geom: RegionGeom(geometry.RectPoly(0, 0, 10, 10))})
	l.MustAdd(Feature{ID: "beta", Geom: RegionGeom(geometry.RectPoly(30, 0, 40, 10))})
	l.MustAdd(Feature{ID: "gamma", Geom: RegionGeom(geometry.RectPoly(0, 30, 10, 40))})
	return l
}

func roads() *Layer {
	l := NewLayer("roads")
	// Road r1 passes between alpha and beta at x=20.
	l.MustAdd(Feature{ID: "r1", Geom: LineGeom(geometry.MustPolyline(
		geometry.Pt(20, -10), geometry.Pt(20, 50)))})
	// Road r2 touches alpha's corner.
	l.MustAdd(Feature{ID: "r2", Geom: LineGeom(geometry.MustPolyline(
		geometry.Pt(10, 10), geometry.Pt(50, 50)))})
	return l
}

func TestSqDistMatrix(t *testing.T) {
	p := PointGeom(geometry.Pt(0, 0))
	ln := LineGeom(geometry.MustPolyline(geometry.Pt(3, 0), geometry.Pt(3, 10)))
	rg := RegionGeom(geometry.RectPoly(5, 5, 7, 7))
	cases := []struct {
		a, b Geometry
		want string
	}{
		{p, p, "0"},
		{p, ln, "9"},
		{p, rg, "50"},
		{ln, rg, "4"},
		{ln, ln, "0"},
		{rg, rg, "0"},
	}
	for i, c := range cases {
		if got := SqDist(c.a, c.b); !got.Equal(q(c.want)) {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
		if got := SqDist(c.b, c.a); !got.Equal(q(c.want)) {
			t.Errorf("case %d (sym): %s", i, got)
		}
	}
}

func TestBufferJoin(t *testing.T) {
	// Towns within distance 10 of each road.
	pairs, err := BufferJoin(roads(), towns(), q("10"))
	if err != nil {
		t.Fatal(err)
	}
	// r1 (the vertical road at x=20) is at distance exactly 10 from alpha
	// and beta, and 10 from gamma's nearest corner region; r2 (the diagonal
	// x=y road) touches alpha's corner but is ~14.14 from beta and gamma
	// (corner (30,10) to the line x=y), outside the buffer.
	want := map[Pair]bool{
		{Left: "r1", Right: "alpha"}: true,
		{Left: "r1", Right: "beta"}:  true,
		{Left: "r1", Right: "gamma"}: true,
		{Left: "r2", Right: "alpha"}: true,
	}
	got := map[Pair]bool{}
	for _, p := range pairs {
		got[p] = true
	}
	if len(got) != len(want) {
		t.Errorf("pairs = %v, want exactly %v", pairs, want)
	}
	for p := range want {
		if !got[p] {
			t.Errorf("missing pair %v (got %v)", p, pairs)
		}
	}
	// Exact boundary check: distance 10 is included, strictly less is not.
	pairs2, err := BufferJoin(roads(), towns(), q("9999/1000"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs2 {
		if p.Left == "r1" {
			t.Errorf("r1 pair %v at distance 10 matched buffer 9.999", p)
		}
	}
	if _, err := BufferJoin(roads(), towns(), q("-1")); err == nil {
		t.Error("negative distance accepted")
	}
}

func TestBufferJoinIndexedAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b := NewLayer("a"), NewLayer("b")
	for i := 0; i < 80; i++ {
		x, y := int64(rng.Intn(200)), int64(rng.Intn(200))
		a.MustAdd(Feature{ID: ids("a", i), Geom: RegionGeom(geometry.RectPoly(x, y, x+5, y+5))})
		x2, y2 := int64(rng.Intn(200)), int64(rng.Intn(200))
		b.MustAdd(Feature{ID: ids("b", i), Geom: PointGeom(geometry.Pt(x2, y2))})
	}
	plain, err := BufferJoin(a, b, q("15"))
	if err != nil {
		t.Fatal(err)
	}
	indexed, accesses, err := BufferJoinIndexed(a, b, q("15"))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(indexed) {
		t.Fatalf("plain %d pairs, indexed %d", len(plain), len(indexed))
	}
	for i := range plain {
		if plain[i] != indexed[i] {
			t.Fatalf("pair %d differs: %v vs %v", i, plain[i], indexed[i])
		}
	}
	if accesses == 0 {
		t.Error("indexed join reported zero accesses")
	}
}

func ids(prefix string, i int) string {
	return prefix + string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}

func TestKNearest(t *testing.T) {
	l := towns()
	// Query point at the origin corner: alpha contains it (0), beta at 20,
	// gamma at 20.
	res, err := KNearest(l, PointGeom(geometry.Pt(10, 10)), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("k=2 returned %d", len(res))
	}
	if res[0].ID != "alpha" || !res[0].SqDist.IsZero() {
		t.Errorf("nearest = %+v", res[0])
	}
	// beta and gamma tie at sqdist 400; ID order breaks the tie.
	if res[1].ID != "beta" || !res[1].SqDist.Equal(q("400")) {
		t.Errorf("second = %+v", res[1])
	}
	// k larger than layer yields all.
	all, _ := KNearest(l, PointGeom(geometry.Pt(0, 0)), 10)
	if len(all) != 3 {
		t.Errorf("k=10 returned %d", len(all))
	}
	if _, err := KNearest(l, PointGeom(geometry.Pt(0, 0)), -1); err == nil {
		t.Error("negative k accepted")
	}
	// k=0 is legal and empty.
	none, err := KNearest(l, PointGeom(geometry.Pt(0, 0)), 0)
	if err != nil || len(none) != 0 {
		t.Errorf("k=0: %v %v", none, err)
	}
}

func TestLayerValidation(t *testing.T) {
	l := NewLayer("x")
	if err := l.Add(Feature{ID: ""}); err == nil {
		t.Error("empty id accepted")
	}
	l.MustAdd(Feature{ID: "a", Geom: PointGeom(geometry.Pt(0, 0))})
	if err := l.Add(Feature{ID: "a", Geom: PointGeom(geometry.Pt(1, 1))}); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, ok := l.Get("a"); !ok {
		t.Error("Get failed")
	}
	if _, ok := l.Get("zzz"); ok {
		t.Error("Get of missing id succeeded")
	}
}

func TestToRelationAndBack(t *testing.T) {
	l := NewLayer("mixed")
	l.MustAdd(Feature{ID: "sq", Geom: RegionGeom(geometry.RectPoly(0, 0, 4, 4))})
	l.MustAdd(Feature{ID: "seg", Geom: LineGeom(geometry.MustPolyline(
		geometry.Pt(10, 10), geometry.Pt(14, 12)))})
	l.MustAdd(Feature{ID: "pt", Geom: PointGeom(geometry.Pt(-3, 7))})
	// Concave feature: multiple constraint tuples with the same fid.
	l.MustAdd(Feature{ID: "ell", Geom: RegionGeom(geometry.MustPolygon(
		geometry.Pt(20, 0), geometry.Pt(24, 0), geometry.Pt(24, 2),
		geometry.Pt(22, 2), geometry.Pt(22, 4), geometry.Pt(20, 4)))})

	r, err := ToRelation(l, "fid", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	// The concave feature contributes >= 2 tuples (paper §6 redundancy
	// type 1: fid duplicated across tuples of one feature).
	count := map[string]int{}
	for _, tp := range r.Tuples() {
		v, _ := tp.RVal("fid")
		s, _ := v.AsString()
		count[s]++
	}
	if count["ell"] < 2 {
		t.Errorf("concave feature has %d tuples", count["ell"])
	}
	if count["sq"] != 1 || count["seg"] != 1 || count["pt"] != 1 {
		t.Errorf("tuple counts = %v", count)
	}
	// Membership semantics: (2,2) with fid "sq" is in the relation.
	ok, err := r.Contains(relation.Point{
		"fid": relation.Str("sq"), "x": relation.Rat(q("2")), "y": relation.Rat(q("2"))})
	if err != nil || !ok {
		t.Errorf("interior of sq: %v %v", ok, err)
	}
	ok, _ = r.Contains(relation.Point{
		"fid": relation.Str("sq"), "x": relation.Rat(q("9")), "y": relation.Rat(q("2"))})
	if ok {
		t.Error("exterior of sq matched")
	}

	// Reconstruct the layer (per-piece mode) and compare distances.
	back, err := FromRelation(r, "fid", "x", "y", false)
	if err != nil {
		t.Fatal(err)
	}
	sq2, ok := back.Get("sq")
	if !ok {
		t.Fatal("sq lost")
	}
	if !sq2.Geom.Region().Area().Equal(q("16")) {
		t.Errorf("sq area after round trip = %s", sq2.Geom.Region().Area())
	}
	seg2, ok := back.Get("seg")
	if !ok || seg2.Geom.Kind() != KindLine {
		t.Fatalf("seg lost or wrong kind: %v", seg2)
	}
	pt2, ok := back.Get("pt")
	if !ok || pt2.Geom.Kind() != KindPoint || !pt2.Geom.Point().Equal(geometry.Pt(-3, 7)) {
		t.Fatalf("pt lost: %v", pt2)
	}
	// ell came back as pieces ell#1, ell#2 (or more).
	foundPieces := 0
	for _, f := range back.Features() {
		if len(f.ID) > 4 && f.ID[:4] == "ell#" {
			foundPieces++
		}
	}
	if foundPieces < 2 {
		t.Errorf("ell pieces = %d", foundPieces)
	}
	// Merge-hull mode gives one feature per id.
	merged, err := FromRelation(r, "fid", "x", "y", true)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 4 {
		t.Errorf("merged layer has %d features", merged.Len())
	}
}

func TestPairsAndNeighborsToRelation(t *testing.T) {
	pr, err := PairsToRelation([]Pair{{Left: "a", Right: "b"}, {Left: "a", Right: "c"}}, "road", "town")
	if err != nil {
		t.Fatal(err)
	}
	if pr.Len() != 2 || !pr.Schema().Has("road") || !pr.Schema().Has("town") {
		t.Errorf("pairs relation: %s", pr)
	}
	nr, err := NeighborsToRelation([]Neighbor{
		{ID: "h1", SqDist: q("4")}, {ID: "h2", SqDist: q("9")}}, "hospital", "rank")
	if err != nil {
		t.Fatal(err)
	}
	if nr.Len() != 2 {
		t.Errorf("neighbors relation: %s", nr)
	}
	first := nr.Tuples()[0]
	rank, _ := first.RVal("rank")
	rv, _ := rank.AsRat()
	if !rv.Equal(q("1")) {
		t.Errorf("rank of first = %s", rv)
	}
}

func TestDistanceDisplayApprox(t *testing.T) {
	d := Distance(PointGeom(geometry.Pt(0, 0)), PointGeom(geometry.Pt(3, 4)))
	if d < 4.9999999 || d > 5.0000001 {
		t.Errorf("distance = %g", d)
	}
	if Distance(PointGeom(geometry.Pt(1, 1)), PointGeom(geometry.Pt(1, 1))) != 0 {
		t.Error("self distance nonzero")
	}
}

// TestQuickBufferJoinSymmetric: buffer join with swapped layers yields the
// mirrored pair set.
func TestQuickBufferJoinSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a, b := NewLayer("a"), NewLayer("b")
	for i := 0; i < 40; i++ {
		a.MustAdd(Feature{ID: ids("a", i), Geom: PointGeom(geometry.Pt(int64(rng.Intn(100)), int64(rng.Intn(100))))})
		b.MustAdd(Feature{ID: ids("b", i), Geom: PointGeom(geometry.Pt(int64(rng.Intn(100)), int64(rng.Intn(100))))})
	}
	ab, err := BufferJoin(a, b, q("12"))
	if err != nil {
		t.Fatal(err)
	}
	ba, err := BufferJoin(b, a, q("12"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ab) != len(ba) {
		t.Fatalf("asymmetric: %d vs %d", len(ab), len(ba))
	}
	set := map[Pair]bool{}
	for _, p := range ba {
		set[Pair{Left: p.Right, Right: p.Left}] = true
	}
	for _, p := range ab {
		if !set[p] {
			t.Fatalf("pair %v missing from mirror", p)
		}
	}
}
