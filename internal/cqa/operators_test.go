package cqa

import (
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

func q(s string) rational.Rat { return rational.MustParse(s) }

func ge(v, k string) constraint.Constraint { return constraint.GeConst(v, q(k)) }
func le(v, k string) constraint.Constraint { return constraint.LeConst(v, q(k)) }
func eq(v, k string) constraint.Constraint { return constraint.EqConst(v, q(k)) }

// TestMissingAttributeInconsistency reproduces the paper's Example 2 and
// Proposition 1: the same data and query give different answers depending
// on the C/R flag of the missing attribute — the broad (constraint) reading
// returns {(x=1, y=17)}, the narrow (relational) reading returns ∅.
func TestMissingAttributeInconsistency(t *testing.T) {
	query := Condition{AttrCmpConst("y", OpEq, q("17"))}

	// Broad: y is a constraint attribute.
	broadSchema := schema.MustNew(schema.Con("x"), schema.Con("y"))
	broad := relation.New(broadSchema)
	broad.MustAdd(relation.ConstraintTuple(constraint.And(eq("x", "1"))))
	got, err := Select(nil, broad, query)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("broad: got %d tuples, want 1", got.Len())
	}
	ok, err := got.Contains(relation.Point{"x": relation.Rat(q("1")), "y": relation.Rat(q("17"))})
	if err != nil || !ok {
		t.Errorf("broad: (1,17) not in result: %v %v", ok, err)
	}

	// Narrow: y is a relational attribute; the tuple has y = NULL.
	narrowSchema := schema.MustNew(schema.Con("x"), schema.Rel("y", schema.Rational))
	narrow := relation.New(narrowSchema)
	narrow.MustAdd(relation.ConstraintTuple(constraint.And(eq("x", "1"))))
	got2, err := Select(nil, narrow, query)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Len() != 0 {
		t.Errorf("narrow: got %d tuples, want 0 (the employee whose age is missing must not match \"age=40\")", got2.Len())
	}
}

// TestHeterogeneousExample3 reproduces the paper's Example 3: R = {(x=1),
// (y=1), (x=17,y=17)} with schema [x: relational, y: constraint]. The
// asymmetric flags give an asymmetric but consistent interpretation.
func TestHeterogeneousExample3(t *testing.T) {
	s := schema.MustNew(schema.Rel("x", schema.Rational), schema.Con("y"))
	r := relation.New(s)
	r.MustAdd(relation.NewTuple(map[string]relation.Value{"x": relation.Rat(q("1"))}, constraint.True()))
	r.MustAdd(relation.ConstraintTuple(constraint.And(eq("y", "1"))))
	r.MustAdd(relation.NewTuple(map[string]relation.Value{"x": relation.Rat(q("17"))},
		constraint.And(eq("y", "17"))))

	// ς_{x=17} R returns {(x=17, y=17)} only: the (y=1) tuple has x=NULL.
	rx, err := Select(nil, r, Condition{AttrCmpConst("x", OpEq, q("17"))})
	if err != nil {
		t.Fatal(err)
	}
	if rx.Len() != 1 {
		t.Fatalf("select x=17: %d tuples, want 1:\n%s", rx.Len(), rx)
	}
	vx, _ := rx.Tuples()[0].RVal("x")
	if !vx.Equal(relation.Rat(q("17"))) {
		t.Errorf("select x=17 returned tuple with x=%s", vx)
	}

	// ς_{y=17} R returns {(x=1, y=17), (x=17, y=17)}: the x=1 tuple's
	// unconstrained y is interpreted broadly.
	ry, err := Select(nil, r, Condition{AttrCmpConst("y", OpEq, q("17"))})
	if err != nil {
		t.Fatal(err)
	}
	if ry.Len() != 2 {
		t.Fatalf("select y=17: %d tuples, want 2:\n%s", ry.Len(), ry)
	}
	seen := map[string]bool{}
	for _, tp := range ry.Tuples() {
		v, ok := tp.RVal("x")
		if !ok {
			t.Fatalf("tuple with NULL x in result: %s", tp)
		}
		r, _ := v.AsRat()
		seen[r.String()] = true
		if !tp.Constraint().Entails(eq("y", "17"), nil) {
			t.Errorf("result tuple does not pin y=17: %s", tp)
		}
	}
	if !seen["1"] || !seen["17"] {
		t.Errorf("select y=17 returned x values %v, want {1, 17}", seen)
	}
}

func landSchema() schema.Schema {
	return schema.MustNew(schema.Rel("landId", schema.String), schema.Con("x"), schema.Con("y"))
}

func landRel(t *testing.T) *relation.Relation {
	t.Helper()
	r := relation.New(landSchema())
	// Parcel A: [0,2]x[0,2]; parcel B: [3,5]x[0,1].
	r.MustAdd(relation.NewTuple(map[string]relation.Value{"landId": relation.Str("A")},
		constraint.And(ge("x", "0"), le("x", "2"), ge("y", "0"), le("y", "2"))))
	r.MustAdd(relation.NewTuple(map[string]relation.Value{"landId": relation.Str("B")},
		constraint.And(ge("x", "3"), le("x", "5"), ge("y", "0"), le("y", "1"))))
	return r
}

func TestSelectStringAtom(t *testing.T) {
	r := landRel(t)
	got, err := Select(nil, r, Condition{StrEq("landId", "A")})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("got %d tuples", got.Len())
	}
	ne, err := Select(nil, r, Condition{StrNe("landId", "A")})
	if err != nil {
		t.Fatal(err)
	}
	if ne.Len() != 1 {
		t.Fatalf("!= got %d tuples", ne.Len())
	}
	v, _ := ne.Tuples()[0].RVal("landId")
	if !v.Equal(relation.Str("B")) {
		t.Errorf("!= kept %s", v)
	}
	// Attribute-vs-attribute string comparison.
	s2 := schema.MustNew(schema.Rel("a", schema.String), schema.Rel("b", schema.String))
	r2 := relation.New(s2)
	r2.MustAdd(relation.NewTuple(map[string]relation.Value{"a": relation.Str("x"), "b": relation.Str("x")}, constraint.True()))
	r2.MustAdd(relation.NewTuple(map[string]relation.Value{"a": relation.Str("x"), "b": relation.Str("y")}, constraint.True()))
	r2.MustAdd(relation.NewTuple(map[string]relation.Value{"a": relation.Str("x")}, constraint.True())) // b NULL
	eqr, err := Select(nil, r2, Condition{StrEqAttr("a", "b")})
	if err != nil {
		t.Fatal(err)
	}
	if eqr.Len() != 1 {
		t.Errorf("a=b matched %d tuples, want 1 (NULL must not match)", eqr.Len())
	}
}

func TestSelectLinearOverConstraintAttrs(t *testing.T) {
	r := landRel(t)
	// x >= 4 clips parcel B and removes parcel A.
	got, err := Select(nil, r, Condition{AttrCmpConst("x", OpGe, q("4"))})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("got %d tuples:\n%s", got.Len(), got)
	}
	iv, ok := got.Tuples()[0].Constraint().VarBounds("x")
	if !ok || !iv.Lower.Equal(q("4")) || !iv.Upper.Equal(q("5")) {
		t.Errorf("clipped bounds = %+v", iv)
	}
	// Multi-attribute linear atom: x + y <= 1 keeps only a corner of A.
	got2, err := Select(nil, r, Condition{Linear(
		constraint.Var("x").Add(constraint.Var("y")), OpLe, constraint.ConstInt(1))})
	if err != nil {
		t.Fatal(err)
	}
	if got2.Len() != 1 {
		t.Fatalf("x+y<=1: got %d tuples", got2.Len())
	}
	id, _ := got2.Tuples()[0].RVal("landId")
	if !id.Equal(relation.Str("A")) {
		t.Errorf("x+y<=1 kept %s", id)
	}
}

func TestSelectNeSplitsRegion(t *testing.T) {
	r := landRel(t)
	got, err := Select(nil, r, Condition{AttrCmpConst("x", OpNe, q("1"))})
	if err != nil {
		t.Fatal(err)
	}
	// Parcel A splits into x<1 and x>1; parcel B (x>=3) survives whole via
	// the x>1 branch only.
	if got.Len() != 3 {
		t.Fatalf("!= split produced %d tuples, want 3:\n%s", got.Len(), got)
	}
	probe := func(id, x, y string) bool {
		ok, err := got.Contains(relation.Point{
			"landId": relation.Str(id), "x": relation.Rat(q(x)), "y": relation.Rat(q(y))})
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if probe("A", "1", "1") {
		t.Error("x=1 survived x!=1")
	}
	if !probe("A", "1/2", "1") || !probe("A", "3/2", "1") || !probe("B", "4", "1/2") {
		t.Error("points with x!=1 lost")
	}
}

func TestSelectOnRelationalRationalAttr(t *testing.T) {
	// Employee(age relational-rational): the paper's "whose age is 40".
	s := schema.MustNew(schema.Rel("name", schema.String), schema.Rel("age", schema.Rational))
	r := relation.New(s)
	r.MustAdd(relation.NewTuple(map[string]relation.Value{
		"name": relation.Str("ann"), "age": relation.Rat(q("40"))}, constraint.True()))
	r.MustAdd(relation.NewTuple(map[string]relation.Value{
		"name": relation.Str("bob")}, constraint.True())) // age missing
	got, err := Select(nil, r, Condition{AttrCmpConst("age", OpEq, q("40"))})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("got %d tuples, want only ann", got.Len())
	}
	name, _ := got.Tuples()[0].RVal("name")
	if !name.Equal(relation.Str("ann")) {
		t.Errorf("got %s", name)
	}
	// Range comparison against bound values.
	older, err := Select(nil, r, Condition{AttrCmpConst("age", OpGt, q("30"))})
	if err != nil {
		t.Fatal(err)
	}
	if older.Len() != 1 {
		t.Errorf("age>30 matched %d", older.Len())
	}
}

func TestSelectValidation(t *testing.T) {
	r := landRel(t)
	if _, err := Select(nil, r, Condition{AttrCmpConst("nope", OpEq, q("1"))}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := Select(nil, r, Condition{StrEq("x", "A")}); err == nil {
		t.Error("string atom over rational attribute accepted")
	}
	if _, err := Select(nil, r, Condition{AttrCmpConst("landId", OpEq, q("1"))}); err == nil {
		t.Error("linear atom over string attribute accepted")
	}
	if _, err := Select(nil, r, Condition{StringAtom{Attr: "landId", Op: OpLt, Lit: "A", IsLit: true}}); err == nil {
		t.Error("< on strings accepted")
	}
}

func TestProject(t *testing.T) {
	r := landRel(t)
	got, err := Project(nil, r, "landId", "x")
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema().Has("y") {
		t.Fatal("y survived projection")
	}
	// Parcel A projects to x in [0,2].
	sel, err := Select(nil, got, Condition{StrEq("landId", "A")})
	if err != nil {
		t.Fatal(err)
	}
	iv, ok := sel.Tuples()[0].Constraint().VarBounds("x")
	if !ok || !iv.Lower.IsZero() || !iv.Upper.Equal(q("2")) {
		t.Errorf("projected bounds = %+v", iv)
	}
	// Projection eliminates, not truncates: triangle x+y<=2, x,y>=0 on x
	// must give [0,2] even though no input constraint mentions only x.
	tri := relation.New(schema.MustNew(schema.Con("x"), schema.Con("y")))
	tri.MustAdd(relation.ConstraintTuple(constraint.And(
		ge("x", "0"), ge("y", "0"),
		constraint.MustNew(constraint.Var("x").Add(constraint.Var("y")), "<=", constraint.ConstInt(2)))))
	px, err := Project(nil, tri, "x")
	if err != nil {
		t.Fatal(err)
	}
	iv2, _ := px.Tuples()[0].Constraint().VarBounds("x")
	if !iv2.Lower.IsZero() || !iv2.Upper.Equal(q("2")) {
		t.Errorf("triangle projection = %+v", iv2)
	}
	if _, err := Project(nil, r, "ghost"); err == nil {
		t.Error("projecting unknown column accepted")
	}
}

func TestJoinSharedConstraintAttrs(t *testing.T) {
	// Land ⋈ Hurricane on shared constraint attrs x, y (paper Query 2 core).
	land := landRel(t)
	hur := relation.New(schema.MustNew(schema.Con("t"), schema.Con("x"), schema.Con("y")))
	// Path segment: x = t, y = 1, 0 <= t <= 4 — crosses A (x<=2) and B (3<=x).
	hur.MustAdd(relation.ConstraintTuple(constraint.And(
		constraint.MustNew(constraint.Var("x"), "=", constraint.Var("t")),
		eq("y", "1"), ge("t", "0"), le("t", "4"))))
	j, err := Join(nil, land, hur)
	if err != nil {
		t.Fatal(err)
	}
	// A joins (t in [0,2]), B joins (t in [3,4]).
	if j.Len() != 2 {
		t.Fatalf("join produced %d tuples:\n%s", j.Len(), j)
	}
	ids, err := Project(nil, j, "landId")
	if err != nil {
		t.Fatal(err)
	}
	if ids.Len() != 2 {
		t.Errorf("ids = %s", ids)
	}
	for _, tp := range j.Tuples() {
		id, _ := tp.RVal("landId")
		iv, ok := tp.Constraint().VarBounds("t")
		if !ok {
			t.Fatalf("joined tuple unsat: %s", tp)
		}
		switch {
		case id.Equal(relation.Str("A")):
			if !iv.Lower.IsZero() || !iv.Upper.Equal(q("2")) {
				t.Errorf("A time window = %+v", iv)
			}
		case id.Equal(relation.Str("B")):
			if !iv.Lower.Equal(q("3")) || !iv.Upper.Equal(q("4")) {
				t.Errorf("B time window = %+v", iv)
			}
		}
	}
}

func TestJoinSharedRelationalAttrs(t *testing.T) {
	owners := relation.New(schema.MustNew(
		schema.Rel("name", schema.String), schema.Rel("landId", schema.String)))
	owners.MustAdd(relation.NewTuple(map[string]relation.Value{
		"name": relation.Str("ann"), "landId": relation.Str("A")}, constraint.True()))
	owners.MustAdd(relation.NewTuple(map[string]relation.Value{
		"name": relation.Str("bob")}, constraint.True())) // landId NULL
	j, err := Join(nil, owners, landRel(t))
	if err != nil {
		t.Fatal(err)
	}
	// ann joins parcel A; bob's NULL landId joins nothing (narrow).
	if j.Len() != 1 {
		t.Fatalf("join len = %d:\n%s", j.Len(), j)
	}
	name, _ := j.Tuples()[0].RVal("name")
	if !name.Equal(relation.Str("ann")) {
		t.Errorf("joined owner = %s", name)
	}
}

func TestJoinDisjointSchemasIsCrossProduct(t *testing.T) {
	a := relation.New(schema.MustNew(schema.Con("x")))
	a.MustAdd(relation.ConstraintTuple(constraint.And(ge("x", "0"), le("x", "1"))))
	a.MustAdd(relation.ConstraintTuple(constraint.And(ge("x", "5"), le("x", "6"))))
	b := relation.New(schema.MustNew(schema.Con("y")))
	b.MustAdd(relation.ConstraintTuple(constraint.And(ge("y", "0"), le("y", "1"))))
	j, err := Join(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Errorf("cross product size = %d", j.Len())
	}
	if !j.Schema().Has("x") || !j.Schema().Has("y") {
		t.Error("cross product schema wrong")
	}
}

func TestJoinSchemaConflict(t *testing.T) {
	a := relation.New(schema.MustNew(schema.Con("x")))
	b := relation.New(schema.MustNew(schema.Rel("x", schema.Rational)))
	if _, err := Join(nil, a, b); err == nil {
		t.Error("kind conflict accepted")
	}
}

func TestIntersect(t *testing.T) {
	s := schema.MustNew(schema.Con("x"))
	a := relation.New(s)
	a.MustAdd(relation.ConstraintTuple(constraint.And(ge("x", "0"), le("x", "2"))))
	b := relation.New(s)
	b.MustAdd(relation.ConstraintTuple(constraint.And(ge("x", "1"), le("x", "3"))))
	got, err := Intersect(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	iv, ok := got.Tuples()[0].Constraint().VarBounds("x")
	if !ok || !iv.Lower.Equal(q("1")) || !iv.Upper.Equal(q("2")) {
		t.Errorf("intersection = %+v", iv)
	}
	c := relation.New(schema.MustNew(schema.Con("y")))
	if _, err := Intersect(nil, a, c); err == nil {
		t.Error("schema mismatch accepted")
	}
}

func TestUnion(t *testing.T) {
	s := schema.MustNew(schema.Con("x"))
	a := relation.New(s)
	a.MustAdd(relation.ConstraintTuple(constraint.And(ge("x", "0"), le("x", "1"))))
	b := relation.New(s)
	b.MustAdd(relation.ConstraintTuple(constraint.And(ge("x", "2"), le("x", "3"))))
	got, err := Union(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Errorf("union len = %d", got.Len())
	}
	// Duplicate tuples are deduplicated.
	dup, err := Union(nil, a, a)
	if err != nil {
		t.Fatal(err)
	}
	if dup.Len() != 1 {
		t.Errorf("self-union len = %d", dup.Len())
	}
	c := relation.New(schema.MustNew(schema.Con("y")))
	if _, err := Union(nil, a, c); err == nil {
		t.Error("schema mismatch accepted")
	}
}

func TestRename(t *testing.T) {
	r := landRel(t)
	got, err := Rename(nil, r, map[string]string{"x": "lon"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema().Has("x") || !got.Schema().Has("lon") {
		t.Fatal("schema rename failed")
	}
	for _, tp := range got.Tuples() {
		if tp.Constraint().HasVar("x") {
			t.Error("constraint variable not renamed")
		}
	}
	got2, err := Rename(nil, got, map[string]string{"landId": "id"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got2.Tuples()[0].RVal("id"); !ok {
		t.Error("relational binding not renamed")
	}
	if _, err := Rename(nil, r, map[string]string{"x": "y"}); err == nil {
		t.Error("rename onto existing attribute accepted")
	}
}

func TestDifference(t *testing.T) {
	s := schema.MustNew(schema.Rel("id", schema.String), schema.Con("x"))
	mk := func(id string, lo, hi string) relation.Tuple {
		return relation.NewTuple(map[string]relation.Value{"id": relation.Str(id)},
			constraint.And(ge("x", lo), le("x", hi)))
	}
	r1 := relation.New(s)
	r1.MustAdd(mk("A", "0", "4"))
	r1.MustAdd(mk("B", "0", "4"))
	r2 := relation.New(s)
	r2.MustAdd(mk("A", "1", "2"))
	got, err := Difference(nil, r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	probe := func(id, x string) bool {
		ok, err := got.Contains(relation.Point{"id": relation.Str(id), "x": relation.Rat(q(x))})
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	// A loses [1,2]; B untouched.
	if probe("A", "3/2") {
		t.Error("A kept subtracted region")
	}
	if !probe("A", "1/2") || !probe("A", "3") || !probe("B", "3/2") {
		t.Error("difference removed too much")
	}
	// Boundary: endpoints of the closed subtrahend are removed.
	if probe("A", "1") || probe("A", "2") {
		t.Error("closed endpoints survived")
	}
	// NULL-safe matching: subtracting a NULL-id tuple affects only NULL-id
	// tuples.
	r3 := relation.New(s)
	r3.MustAdd(relation.ConstraintTuple(constraint.And(ge("x", "0"), le("x", "4"))))
	got2, err := Difference(nil, r1, r3)
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equivalent(r1) {
		t.Error("NULL-id subtrahend affected bound-id tuples")
	}
	// Schema check.
	other := relation.New(schema.MustNew(schema.Con("x")))
	if _, err := Difference(nil, r1, other); err == nil {
		t.Error("schema mismatch accepted")
	}
}

func TestDifferenceUpwardCompatible(t *testing.T) {
	// Pure relational difference must behave exactly like set difference.
	s := schema.MustNew(schema.Rel("id", schema.String))
	mk := func(ids ...string) *relation.Relation {
		r := relation.New(s)
		for _, id := range ids {
			r.MustAdd(relation.NewTuple(map[string]relation.Value{"id": relation.Str(id)}, constraint.True()))
		}
		return r
	}
	got, err := Difference(nil, mk("a", "b", "c"), mk("b"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("difference len = %d:\n%s", got.Len(), got)
	}
	for _, tp := range got.Tuples() {
		v, _ := tp.RVal("id")
		if sv, _ := v.AsString(); sv == "b" {
			t.Error("subtracted tuple survived")
		}
	}
}
