package relation

import (
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/rational"
	"cdb/internal/schema"
)

func q(s string) rational.Rat { return rational.MustParse(s) }

func landSchema() schema.Schema {
	return schema.MustNew(schema.Rel("landId", schema.String), schema.Con("x"), schema.Con("y"))
}

// unitSquare returns the constraint part for [x0,x0+1]x[y0,y0+1].
func square(x0, y0 int64) constraint.Conjunction {
	return constraint.And(
		constraint.GeConst("x", rational.FromInt(x0)),
		constraint.LeConst("x", rational.FromInt(x0+1)),
		constraint.GeConst("y", rational.FromInt(y0)),
		constraint.LeConst("y", rational.FromInt(y0+1)),
	)
}

func TestValueBasics(t *testing.T) {
	if !Null().IsNull() || Str("a").IsNull() {
		t.Error("IsNull wrong")
	}
	if Null().Equal(Null()) {
		t.Error("NULL = NULL under query equality")
	}
	if !Null().Identical(Null()) {
		t.Error("NULL not identical to NULL")
	}
	if !Str("a").Equal(Str("a")) || Str("a").Equal(Str("b")) {
		t.Error("string equality wrong")
	}
	if !Rat(q("1/2")).Equal(Rat(q("2/4"))) {
		t.Error("rational equality wrong")
	}
	if Str("a").Equal(Rat(q("1"))) {
		t.Error("cross-kind equality")
	}
	if Int(3).Compare(Int(4)) >= 0 || Str("a").Compare(Str("b")) >= 0 {
		t.Error("Compare ordering wrong")
	}
	if got := Str("hi").String(); got != `"hi"` {
		t.Errorf("String = %s", got)
	}
}

func TestTupleBasics(t *testing.T) {
	tp := NewTuple(map[string]Value{"landId": Str("A"), "junk": Null()}, square(0, 0))
	if _, ok := tp.RVal("junk"); ok {
		t.Error("explicit NULL binding not normalised away")
	}
	v, ok := tp.RVal("landId")
	if !ok || !v.Equal(Str("A")) {
		t.Error("RVal lost binding")
	}
	up := tp.WithRVal("owner", Str("bob"))
	if _, ok := tp.RVal("owner"); ok {
		t.Error("WithRVal mutated original")
	}
	if v, _ := up.RVal("owner"); !v.Equal(Str("bob")) {
		t.Error("WithRVal did not bind")
	}
	if !tp.IsSatisfiable() {
		t.Error("square unsatisfiable")
	}
	bad := tp.WithConstraint(tp.Constraint().With(constraint.GeConst("x", q("9"))))
	if bad.IsSatisfiable() {
		t.Error("contradiction satisfiable")
	}
	if !tp.IsSatisfiable() {
		t.Error("WithConstraint mutated original")
	}
}

func TestTupleSameRelationalPart(t *testing.T) {
	a := NewTuple(map[string]Value{"id": Str("A")}, constraint.True())
	b := NewTuple(map[string]Value{"id": Str("A")}, square(0, 0))
	c := NewTuple(map[string]Value{"id": Str("B")}, constraint.True())
	d := NewTuple(nil, constraint.True())
	if !a.SameRelationalPart(b) || a.SameRelationalPart(c) || a.SameRelationalPart(d) {
		t.Error("SameRelationalPart wrong")
	}
	if !d.SameRelationalPart(NewTuple(map[string]Value{}, square(1, 1))) {
		t.Error("empty relational parts should match")
	}
}

func TestAddValidation(t *testing.T) {
	r := New(landSchema())
	if err := r.Add(NewTuple(map[string]Value{"nope": Str("A")}, constraint.True())); err == nil {
		t.Error("unknown attribute accepted")
	}
	if err := r.Add(NewTuple(map[string]Value{"x": Str("A")}, constraint.True())); err == nil {
		t.Error("value binding for constraint attribute accepted")
	}
	if err := r.Add(NewTuple(map[string]Value{"landId": Int(3)}, constraint.True())); err == nil {
		t.Error("type mismatch accepted")
	}
	if err := r.Add(ConstraintTuple(constraint.And(constraint.EqConst("z", q("1"))))); err == nil {
		t.Error("constraint over unknown attribute accepted")
	}
	// Constraint over a relational rational attribute must be rejected.
	s2 := schema.MustNew(schema.Rel("age", schema.Rational), schema.Con("t"))
	r2 := New(s2)
	if err := r2.Add(ConstraintTuple(constraint.And(constraint.EqConst("age", q("40"))))); err == nil {
		t.Error("constraint over relational attribute accepted")
	}
	if err := r2.Add(NewTuple(map[string]Value{"age": Rat(q("40"))}, constraint.True())); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
}

// TestAddBoundValidation: AddBound applies Add's checks to positions, and
// what it accepts is the tuple Add would have stored.
func TestAddBoundValidation(t *testing.T) {
	s := schema.MustNew(schema.Rel("landId", schema.String), schema.Rel("age", schema.Rational), schema.Con("x"))
	r := New(s)
	con := constraint.And(constraint.LeConst("x", q("3"))).Canon()
	for name, binds := range map[string][]Bound{
		"position past the schema": {{Attr: 3, Val: Str("A")}},
		"negative position":        {{Attr: -1, Val: Str("A")}},
		"constraint attribute":     {{Attr: 2, Val: Int(1)}},
		"string for a rational":    {{Attr: 1, Val: Str("A")}},
		"rational for a string":    {{Attr: 0, Val: Int(1)}},
		"NULL value":               {{Attr: 0, Val: Null()}},
		"descending positions":     {{Attr: 1, Val: Int(1)}, {Attr: 0, Val: Str("A")}},
		"repeated position":        {{Attr: 0, Val: Str("A")}, {Attr: 0, Val: Str("B")}},
	} {
		if err := r.AddBound(binds, con); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := r.AddBound(nil, constraint.And(constraint.EqConst("age", q("40")))); err == nil {
		t.Error("constraint over relational attribute accepted")
	}
	if r.Len() != 0 {
		t.Fatalf("rejected tuples were stored: %d", r.Len())
	}
	if err := r.AddBound([]Bound{{Attr: 0, Val: Str("A")}, {Attr: 1, Val: Int(40)}}, con); err != nil {
		t.Fatal(err)
	}
	if err := r.AddBound(nil, con); err != nil {
		t.Fatal(err)
	}
	byName := NewTuple(map[string]Value{"landId": Str("A"), "age": Int(40)}, con)
	if got := r.Tuples()[0]; !got.SameRelationalPart(byName) || got.String() != byName.String() {
		t.Fatalf("AddBound stored %s, Add would store %s", got, byName)
	}
	if got := r.Tuples()[1]; !got.SameRelationalPart(ConstraintTuple(con)) || len(got.RVals()) != 0 {
		t.Fatalf("AddBound without bindings stored %s", got)
	}
	if v, ok := r.Tuples()[1].WithRVal("landId", Str("B")).RVal("landId"); !ok || !v.Identical(Str("B")) {
		t.Fatal("a tuple stored without bindings cannot be extended")
	}
}

func TestContainsSemantics(t *testing.T) {
	r := New(landSchema())
	r.MustAdd(NewTuple(map[string]Value{"landId": Str("A")}, square(0, 0)))
	r.MustAdd(ConstraintTuple(square(5, 5))) // landId is NULL here

	pt := func(id Value, x, y string) Point {
		return Point{"landId": id, "x": Rat(q(x)), "y": Rat(q(y))}
	}
	ok, err := r.Contains(pt(Str("A"), "1/2", "1/2"))
	if err != nil || !ok {
		t.Errorf("interior point of A: %v %v", ok, err)
	}
	ok, _ = r.Contains(pt(Str("B"), "1/2", "1/2"))
	if ok {
		t.Error("wrong id matched")
	}
	// Narrow semantics: NULL landId tuple only matches NULL point value.
	ok, _ = r.Contains(pt(Str("A"), "11/2", "11/2"))
	if ok {
		t.Error("null-landId tuple matched a concrete id")
	}
	ok, _ = r.Contains(pt(Null(), "11/2", "11/2"))
	if !ok {
		t.Error("null point value did not match null-landId tuple")
	}
	// Constraint part must hold.
	ok, _ = r.Contains(pt(Str("A"), "9", "9"))
	if ok {
		t.Error("point outside square matched")
	}
	// Invalid probes.
	if _, err := r.Contains(Point{"landId": Str("A"), "x": Rat(q("0"))}); err == nil {
		t.Error("partial point accepted")
	}
	if _, err := r.Contains(Point{"landId": Str("A"), "x": Rat(q("0")), "y": Null()}); err == nil {
		t.Error("null constraint coordinate accepted")
	}
}

func TestNormalize(t *testing.T) {
	r := New(landSchema())
	sq := square(0, 0)
	r.MustAdd(NewTuple(map[string]Value{"landId": Str("A")}, sq))
	r.MustAdd(NewTuple(map[string]Value{"landId": Str("A")}, sq)) // duplicate
	r.MustAdd(ConstraintTuple(constraint.And(
		constraint.GeConst("x", q("2")), constraint.LeConst("x", q("1"))))) // unsat
	n := r.Normalize()
	if n.Len() != 1 {
		t.Errorf("Normalize: %d tuples, want 1:\n%s", n.Len(), n)
	}
	if !n.Equivalent(r) {
		t.Error("Normalize changed semantics")
	}
}

func TestEquivalent(t *testing.T) {
	s := landSchema()
	// [0,2] as one tuple vs two overlapping halves.
	whole := New(s)
	whole.MustAdd(ConstraintTuple(constraint.And(
		constraint.GeConst("x", q("0")), constraint.LeConst("x", q("2")))))
	halves := New(s)
	halves.MustAdd(ConstraintTuple(constraint.And(
		constraint.GeConst("x", q("0")), constraint.LeConst("x", q("3/2")))))
	halves.MustAdd(ConstraintTuple(constraint.And(
		constraint.GeConst("x", q("1")), constraint.LeConst("x", q("2")))))
	if !whole.Equivalent(halves) {
		t.Error("split interval not equivalent to whole")
	}
	// Different extents are not equivalent.
	shorter := New(s)
	shorter.MustAdd(ConstraintTuple(constraint.And(
		constraint.GeConst("x", q("0")), constraint.LeConst("x", q("1")))))
	if whole.Equivalent(shorter) {
		t.Error("different extents equivalent")
	}
	// Different relational parts are not equivalent.
	named := New(s)
	named.MustAdd(NewTuple(map[string]Value{"landId": Str("A")}, constraint.And(
		constraint.GeConst("x", q("0")), constraint.LeConst("x", q("2")))))
	if whole.Equivalent(named) {
		t.Error("null vs bound relational part equivalent")
	}
	// Schema mismatch.
	other := New(schema.MustNew(schema.Con("x")))
	if whole.Equivalent(other) {
		t.Error("different schemas equivalent")
	}
}

func TestSortedDeterminism(t *testing.T) {
	r := New(landSchema())
	r.MustAdd(NewTuple(map[string]Value{"landId": Str("B")}, constraint.True()))
	r.MustAdd(NewTuple(map[string]Value{"landId": Str("A")}, constraint.True()))
	s := r.Sorted()
	v0, _ := s[0].RVal("landId")
	if !v0.Equal(Str("A")) {
		t.Errorf("sorted order wrong: %v", s)
	}
	_ = r.String() // must not panic
}
