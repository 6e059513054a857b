package db

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// randDatabase builds a random database whose tuples exercise the whole
// text format: quoted and unquoted strings, rational relational values,
// fractions and negatives in constraints, equalities, strict and non-strict
// inequalities, NULL relational parts, duplicate and unsatisfiable tuples —
// deliberately NOT canonicalised, so the round trip has real work to do.
func randDatabase(rng *rand.Rand) *Database {
	d := New()
	nRels := 1 + rng.Intn(3)
	for ri := 0; ri < nRels; ri++ {
		s := schema.MustNew(
			schema.Rel("id", schema.String),
			schema.Rel("w", schema.Rational),
			schema.Con("x"), schema.Con("y"))
		r := relation.New(s)
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			rv := map[string]relation.Value{}
			if rng.Intn(4) > 0 {
				rv["id"] = relation.Str(fmt.Sprintf("p %d", rng.Intn(3)))
			}
			if rng.Intn(3) > 0 {
				rv["w"] = relation.Rat(rational.New(int64(rng.Intn(9)-4), int64(rng.Intn(3)+1)))
			}
			var cs []constraint.Constraint
			for _, v := range []string{"x", "y"} {
				if rng.Intn(4) == 0 {
					continue // leave the attribute unconstrained
				}
				lo := rational.New(int64(rng.Intn(19)-9), int64(rng.Intn(3)+1))
				span := rational.New(int64(rng.Intn(7)-1), 1) // sometimes empty
				op := []constraint.Op{constraint.Le, constraint.Lt, constraint.Eq}[rng.Intn(3)]
				// lo OP' v (as v - lo ... ) plus an upper bound, unscaled odd
				// multiples so canonicalisation is visible in the round trip.
				k := rational.FromInt(int64(rng.Intn(3) + 1))
				cs = append(cs, constraint.Constraint{
					Expr: constraint.Const(lo).Sub(constraint.Var(v)).Scale(k), Op: op})
				if op != constraint.Eq {
					cs = append(cs, constraint.Constraint{
						Expr: constraint.Var(v).Sub(constraint.Const(lo.Add(span))), Op: constraint.Le})
				}
			}
			t := relation.NewTuple(rv, constraint.And(cs...))
			r.MustAdd(t)
			if rng.Intn(5) == 0 {
				r.MustAdd(t)
			}
		}
		if err := d.Put(fmt.Sprintf("R%d", ri), r); err != nil {
			panic(err)
		}
	}
	return d
}

func saveString(t *testing.T, d *Database) string {
	t.Helper()
	var b bytes.Buffer
	if err := d.Save(&b); err != nil {
		t.Fatalf("save: %v", err)
	}
	return b.String()
}

// TestQuickSaveLoadEquivalent is the round-trip property test: for random
// databases, Save then Load yields a database with the same relation names
// and schemas whose relations are semantically Equivalent, tuple soup and
// all; loaded tuples are canonical; and the text format is a fixpoint after
// one round trip (canonical tuples survive Save verbatim).
func TestQuickSaveLoadEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 60; iter++ {
		d0 := randDatabase(rng)
		s1 := saveString(t, d0)
		d1, err := Load(strings.NewReader(s1), nil)
		if err != nil {
			t.Fatalf("iter %d: load: %v\n%s", iter, err, s1)
		}
		if got, want := fmt.Sprint(d1.Names()), fmt.Sprint(d0.Names()); got != want {
			t.Fatalf("iter %d: names %s, want %s", iter, got, want)
		}
		for _, name := range d0.Names() {
			r0, _ := d0.Get(name)
			r1, ok := d1.Get(name)
			if !ok {
				t.Fatalf("iter %d: relation %q lost", iter, name)
			}
			if !r0.Schema().Equal(r1.Schema()) {
				t.Fatalf("iter %d: %q schema changed: %s vs %s", iter, name, r0.Schema(), r1.Schema())
			}
			if !r0.Equivalent(r1) {
				t.Fatalf("iter %d: %q not equivalent after round trip\nsaved:\n%s\nloaded:\n%s",
					iter, name, r0, r1)
			}
			// Loaded tuples carry the canonical-form invariant.
			for _, tp := range r1.Tuples() {
				con := tp.Constraint()
				if !con.EqualCanonical(con.Canon()) || con.Len() != con.Canon().Len() {
					t.Fatalf("iter %d: %q loaded a non-canonical tuple: %s", iter, name, tp)
				}
			}
		}
		// One round trip reaches the format's fixpoint: canonical tuples
		// rendered to text parse back to themselves.
		s2 := saveString(t, d1)
		d2, err := Load(strings.NewReader(s2), nil)
		if err != nil {
			t.Fatalf("iter %d: reload: %v", iter, err)
		}
		if s3 := saveString(t, d2); s3 != s2 {
			t.Fatalf("iter %d: save not a fixpoint after round trip:\n--- second save\n%s\n--- third save\n%s",
				iter, s2, s3)
		}
	}
}

// TestSpecialStringsRoundTrip: a relational string value may hold the
// characters the text format itself uses — the quote, the '|' between the
// two parts, the ',' between bindings, the '#' of a comment — and whatever
// strconv.Quote escapes. Each must come back as the same value, from a
// tuple line that also carries a constraint part and a trailing comment.
func TestSpecialStringsRoundTrip(t *testing.T) {
	values := []string{`a",b`, `a|b`, `a#b`, "a\nb", ` lead`, `a=b`, `\`, `"`, `a\"|#,`, "", "é\x00\t"}
	s := schema.MustNew(schema.Rel("id", schema.String), schema.Rel("note", schema.String), schema.Con("x"))
	r := relation.New(s)
	for i, v := range values {
		r.MustAdd(relation.NewTuple(
			map[string]relation.Value{"id": relation.Str(v), "note": relation.Str(values[len(values)-1-i])},
			constraint.And(constraint.GeConst("x", rational.FromInt(int64(i))))).Canon())
	}
	d := New()
	if err := d.Put("S", r); err != nil {
		t.Fatal(err)
	}
	text := saveString(t, d)
	got, err := Load(strings.NewReader(strings.ReplaceAll(text, "\ntuple", " # a comment, with | and \"\ntuple")), nil)
	if err != nil {
		t.Fatalf("load: %v\n%s", err, text)
	}
	if again := saveString(t, got); again != text {
		t.Fatalf("special strings did not round-trip:\n--- saved\n%s\n--- after load\n%s", text, again)
	}
	back, _ := got.Get("S")
	seen := map[string]bool{}
	for _, tp := range back.Tuples() {
		v, _ := tp.RVal("id")
		str, _ := v.AsString()
		seen[str] = true
	}
	for _, v := range values {
		if !seen[v] {
			t.Errorf("value %q lost in the round trip", v)
		}
	}
}

// TestStringLiteralTrailingJunk: bytes after the closing quote of a string
// literal are an error, not silently dropped.
func TestStringLiteralTrailingJunk(t *testing.T) {
	for _, line := range []string{`tuple id="a"junk | x >= 0`, `tuple id="a" b | x >= 0`, `tuple id="a | x >= 0`} {
		src := "relation R\nschema id string relational, x rational constraint\n" + line + "\nend\n"
		if _, err := Load(strings.NewReader(src), nil); err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%s: loaded, or failed without naming line 3: %v", line, err)
		}
	}
}

// TestLongLines: the loader starts from a small buffer and still accepts
// a line of up to maxLineBytes with its newline; a longer one is an error
// that names the line and wraps bufio.ErrTooLong.
func TestLongLines(t *testing.T) {
	block := func(pad int) string {
		line := `tuple id="` + strings.Repeat("v", pad)
		line += `" | x >= 0`
		return "relation R\nschema id string relational, x rational constraint\n" + line + "\nend\n"
	}
	const overhead = len(`tuple id="" | x >= 0`)
	d, err := Load(strings.NewReader(block(maxLineBytes-1-overhead)), nil)
	if err != nil {
		t.Fatalf("a line of maxLineBytes-1 bytes did not load: %v", err)
	}
	if r, _ := d.Get("R"); r.Len() != 1 {
		t.Fatalf("long line loaded %d tuples, want 1", r.Len())
	}
	_, err = Load(strings.NewReader(block(maxLineBytes-overhead)), nil)
	if !errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), "db: line 3:") {
		t.Fatalf("over-long line: err = %v, want db: line 3: wrapping bufio.ErrTooLong", err)
	}
}
