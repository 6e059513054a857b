package oracle

import (
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/query"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// cons parses a comma-separated constraint list; tests die on bad input.
func cons(t *testing.T, src string) []constraint.Constraint {
	t.Helper()
	cs, err := query.ParseConstraints(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return cs
}

func pt(kv map[string]relation.Value) relation.Point { return relation.Point(kv) }

func ratv(n int64) relation.Value { return relation.Rat(rational.FromInt(n)) }

func TestInNarrowAndBroadSemantics(t *testing.T) {
	s := schema.MustNew(schema.Rel("id", schema.String), schema.Con("x"))
	r := relation.New(s)
	r.MustAdd(relation.NewTuple(
		map[string]relation.Value{"id": relation.Str("a")},
		constraint.And(cons(t, "x <= 5")...)))
	// Narrow NULL: this tuple binds id to NULL, admitting only NULL.
	r.MustAdd(relation.NewTuple(nil, constraint.And(cons(t, "x = 7")...)))

	cases := []struct {
		name string
		p    relation.Point
		want bool
	}{
		{"boundary in", pt(map[string]relation.Value{"id": relation.Str("a"), "x": ratv(5)}), true},
		{"interior in", pt(map[string]relation.Value{"id": relation.Str("a"), "x": ratv(-100)}), true},
		{"outside", pt(map[string]relation.Value{"id": relation.Str("a"), "x": ratv(6)}), false},
		{"wrong id", pt(map[string]relation.Value{"id": relation.Str("b"), "x": ratv(5)}), false},
		{"null id matches null tuple", pt(map[string]relation.Value{"id": relation.Null(), "x": ratv(7)}), true},
		{"null id misses bound tuple", pt(map[string]relation.Value{"id": relation.Null(), "x": ratv(5)}), false},
		{"bound id misses null tuple", pt(map[string]relation.Value{"id": relation.Str("a"), "x": ratv(7)}), false},
	}
	for _, c := range cases {
		got, err := In(r, c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: In = %v, want %v", c.name, got, c.want)
		}
	}

	// A point missing an attribute is a caller error, not a miss.
	if _, err := In(r, pt(map[string]relation.Value{"id": relation.Str("a")})); err == nil {
		t.Error("expected error for point missing attribute x")
	}
}

func TestInBroadUnconstrained(t *testing.T) {
	// An empty conjunction constrains nothing: the tuple admits every
	// rational coordinate (broad semantics).
	s := schema.MustNew(schema.Con("x"), schema.Con("y"))
	r := relation.New(s)
	r.MustAdd(relation.NewTuple(nil, constraint.True()))
	got, err := In(r, pt(map[string]relation.Value{"x": ratv(123456), "y": relation.Rat(rational.New(-7, 3))}))
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("unconstrained tuple must admit every point")
	}
}

func TestNaiveSat(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"", true},
		{"0 < 0", false}, // the False sentinel
		{"x <= 5", true},
		{"x <= 5, x >= 6", false},
		{"x <= 5, x >= 5", true},
		{"x < 5, x >= 5", false},
		{"x < 0, x >= 0", false}, // strict closure trap: closure feasible, set empty
		{"x = 3, x <= 2", false},
		{"x = 3, x <= 3", true},
		{"x + y <= 1, x >= 1, y >= 1", false},
		{"x + y <= 2, x >= 1, y >= 1", true},
		{"x - y < 0, y - z < 0, z - x < 0", false}, // strict cycle
		{"x - y <= 0, y - z <= 0, z - x <= 0", true},
		{"2x + 3y = 6, x = 3, y >= 1", false},
		{"2x + 3y = 6, x = 3, y = 0", true},
	}
	for _, c := range cases {
		if got := naiveSat(cons(t, c.src)); got != c.want {
			t.Errorf("naiveSat(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestInProjection(t *testing.T) {
	// r(x, y) with x = y and y <= 3; projecting onto x keeps x <= 3.
	s := schema.MustNew(schema.Con("x"), schema.Con("y"))
	r := relation.New(s)
	r.MustAdd(relation.NewTuple(nil, constraint.And(cons(t, "x = y, y <= 3")...)))

	in, err := inProjection(r, []string{"x"}, pt(map[string]relation.Value{"x": ratv(2)}))
	if err != nil {
		t.Fatal(err)
	}
	if !in {
		t.Error("x=2 should be in π_x(r)")
	}
	in, err = inProjection(r, []string{"x"}, pt(map[string]relation.Value{"x": ratv(4)}))
	if err != nil {
		t.Fatal(err)
	}
	if in {
		t.Error("x=4 should not be in π_x(r)")
	}
}

func TestInProjectionDropsRelational(t *testing.T) {
	// Dropping a relational attribute is purely existential: both a bound
	// and a NULL binding witness the projection.
	s := schema.MustNew(schema.Rel("id", schema.String), schema.Con("x"))
	r := relation.New(s)
	r.MustAdd(relation.NewTuple(
		map[string]relation.Value{"id": relation.Str("a")},
		constraint.And(cons(t, "x <= 1")...)))
	in, err := inProjection(r, []string{"x"}, pt(map[string]relation.Value{"x": ratv(0)}))
	if err != nil {
		t.Fatal(err)
	}
	if !in {
		t.Error("x=0 should be in π_x(r)")
	}
}

func TestCondHolds(t *testing.T) {
	p := pt(map[string]relation.Value{
		"id":  relation.Str("a"),
		"tag": relation.Null(),
		"x":   ratv(3),
	})
	cases := []struct {
		name string
		cond cqa.Condition
		want bool
	}{
		{"str eq hit", cqa.Condition{cqa.StrEq("id", "a")}, true},
		{"str eq miss", cqa.Condition{cqa.StrEq("id", "b")}, false},
		{"str ne", cqa.Condition{cqa.StrNe("id", "b")}, true},
		{"null matches nothing", cqa.Condition{cqa.StrEq("tag", "a")}, false},
		{"null not even ne", cqa.Condition{cqa.StrNe("tag", "zzz")}, false},
		{"linear le hit", cqa.Condition{cqa.AttrCmpConst("x", cqa.OpLe, rational.FromInt(3))}, true},
		{"linear lt miss", cqa.Condition{cqa.AttrCmpConst("x", cqa.OpLt, rational.FromInt(3))}, false},
		{"linear ne", cqa.Condition{cqa.AttrCmpConst("x", cqa.OpNe, rational.FromInt(2))}, true},
		{"conjunction", cqa.Condition{cqa.StrEq("id", "a"), cqa.AttrCmpConst("x", cqa.OpGe, rational.FromInt(3))}, true},
	}
	for _, c := range cases {
		got, err := CondHolds(c.cond, p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: CondHolds = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestApplyHoldsDifference(t *testing.T) {
	s := schema.MustNew(schema.Con("x"))
	r1 := relation.New(s)
	r1.MustAdd(relation.NewTuple(nil, constraint.And(cons(t, "x <= 10, x >= 0")...)))
	r2 := relation.New(s)
	r2.MustAdd(relation.NewTuple(nil, constraint.And(cons(t, "x <= 7, x >= 3")...)))
	a := Apply{Op: "difference"}
	for _, c := range []struct {
		x    int64
		want bool
	}{{-1, false}, {0, true}, {2, true}, {3, false}, {7, false}, {8, true}, {10, true}, {11, false}} {
		got, err := a.Holds(r1, r2, pt(map[string]relation.Value{"x": ratv(c.x)}))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("x=%d: Holds = %v, want %v", c.x, got, c.want)
		}
	}
}
