package cdb_test

import (
	"fmt"
	"log"

	"cdb"
)

// ExampleDatabase_Run shows the paper's Example 3 through the ASCII query
// language: the same data answers differently depending on which attribute
// the condition touches, because x is relational (narrow NULL semantics)
// and y is a constraint attribute (broad semantics).
func ExampleDatabase_Run() {
	s := cdb.MustSchema(cdb.Rel("x", cdb.Rational), cdb.Con("y"))
	r := cdb.NewRelation(s)
	yEq := func(k int64) cdb.Conjunction {
		c, _ := cdb.NewConstraint(cdb.VarExpr("y"), "=", cdb.ConstExpr(cdb.RatFromInt(k)))
		return cdb.And(c)
	}
	r.MustAdd(cdb.NewTuple(map[string]cdb.Value{"x": cdb.IntVal(1)}, cdb.And()))
	r.MustAdd(cdb.NewTuple(nil, yEq(1)))
	r.MustAdd(cdb.NewTuple(map[string]cdb.Value{"x": cdb.IntVal(17)}, yEq(17)))

	d := cdb.NewDatabase()
	if err := d.Put("R", r); err != nil {
		log.Fatal(err)
	}
	byX, _ := d.Run(`A = select x = 17 from R`, nil)
	byY, _ := d.Run(`A = select y = 17 from R`, nil)
	fmt.Printf("select x=17: %d tuple(s)\n", byX.Len())
	fmt.Printf("select y=17: %d tuple(s)\n", byY.Len())
	// Output:
	// select x=17: 1 tuple(s)
	// select y=17: 2 tuple(s)
}

// ExampleKNearest shows a whole-feature operator: exact squared-distance
// ranking with deterministic tie-breaks.
func ExampleKNearest() {
	l := cdb.NewLayer("towns")
	square := func(x0, y0 int64) cdb.Feature {
		p, _ := cdb.NewPolygon([]cdb.Point{
			cdb.Pt(x0, y0), cdb.Pt(x0+4, y0), cdb.Pt(x0+4, y0+4), cdb.Pt(x0, y0+4)})
		return cdb.Feature{Geom: cdb.RegionGeom(p)}
	}
	a, b := square(0, 0), square(10, 0)
	a.ID, b.ID = "west", "east"
	l.MustAdd(a)
	l.MustAdd(b)
	ns, _ := cdb.KNearest(l, cdb.PointGeom(cdb.Pt(7, 2)), 2)
	for _, n := range ns {
		fmt.Printf("%s sqdist=%s\n", n.ID, n.SqDist)
	}
	// Output:
	// east sqdist=9
	// west sqdist=9
}

// ExampleParseRules runs a declarative rule against a database built in
// code: repeated variables express the join.
func ExampleParseRules() {
	land := cdb.NewRelation(cdb.MustSchema(
		cdb.Rel("id", cdb.String), cdb.Con("x")))
	cs, _ := cdb.ParseConstraints("x >= 0, x <= 5")
	land.MustAdd(cdb.NewTuple(map[string]cdb.Value{"id": cdb.Str("A")}, cdb.And(cs...)))

	d := cdb.NewDatabase()
	_ = d.Put("Land", land)

	prog, _ := cdb.ParseRules(`near(id) :- Land(id, x), x <= 2.`)
	out, _ := prog.RunCtx(d.Env(), nil)
	fmt.Println(out.Len(), "feature(s)")
	// Output:
	// 1 feature(s)
}
