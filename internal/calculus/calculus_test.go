package calculus

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/hurricane"
	"cdb/internal/query"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

func q(s string) rational.Rat { return rational.MustParse(s) }

func hurricaneEnv() cqa.Env {
	d := hurricane.Build()
	return d.Env()
}

func names(r *relation.Relation, attr string) []string {
	set := map[string]bool{}
	for _, t := range r.Tuples() {
		if v, ok := t.RVal(attr); ok {
			if s, ok := v.AsString(); ok {
				set[s] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func TestRuleQuery1(t *testing.T) {
	// Paper Query 1 as a rule: who owned Land A and when.
	prog, err := Parse(`owned(name, t) :- Landownership(name, t, id), id = "A".`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := prog.Run(hurricaneEnv())
	if err != nil {
		t.Fatal(err)
	}
	got := names(out, "name")
	if len(got) != 2 || got[0] != "ann" || got[1] != "bob" {
		t.Errorf("owners = %v", got)
	}
	if !out.Schema().Has("t") || out.Schema().Len() != 2 {
		t.Errorf("schema = %s", out.Schema())
	}
}

func TestRuleQuery2JoinOnSharedVariables(t *testing.T) {
	// Paper Query 2: lands the hurricane passed — the join is expressed by
	// repeating variables across atoms, the calculus way.
	prog, err := Parse(`passed(id) :- Hurricane(t, x, y), Land(id, x, y).`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := prog.Run(hurricaneEnv())
	if err != nil {
		t.Fatal(err)
	}
	got := names(out, "id")
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("passed = %v, want [A B]", got)
	}
}

func TestRuleQuery3MultiRule(t *testing.T) {
	// Paper Query 3 as a two-rule program with a comparison atom; the
	// second rule consumes the first rule's head.
	prog, err := Parse(`
hitAt(name, t) :- Landownership(name, t, id), Land(id, x, y), Hurricane(t, x, y).
answer(name)   :- hitAt(name, t), t >= 4, t <= 9.`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := prog.Run(hurricaneEnv())
	if err != nil {
		t.Fatal(err)
	}
	got := names(out, "name")
	if len(got) != 2 || got[0] != "ann" || got[1] != "carol" {
		t.Errorf("hit owners = %v, want [ann carol]", got)
	}
}

func TestRuleConstantsAndAnonymous(t *testing.T) {
	// Rational constant in an atom position and anonymous variables.
	prog, err := Parse(`onPath(x) :- Hurricane(6, x, _).`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := prog.Run(hurricaneEnv())
	if err != nil {
		t.Fatal(err)
	}
	// At t = 6 the hurricane (x = t - 1) is at x = 5 — both segments
	// touch t=6, both pin x to 5.
	if out.Len() == 0 {
		t.Fatal("no tuples")
	}
	for _, tp := range out.Tuples() {
		iv, ok := tp.Constraint().VarBounds("x")
		if !ok || !iv.IsPoint() || !iv.Lower.Equal(q("5")) {
			t.Errorf("x bounds = %+v", iv)
		}
	}
}

func TestRuleUnionOfRules(t *testing.T) {
	// Two rules with the same head union.
	prog, err := Parse(`
near(id) :- Land(id, x, y), x <= 4.
near(id) :- Land(id, x, y), y >= 5.`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := prog.Run(hurricaneEnv())
	if err != nil {
		t.Fatal(err)
	}
	got := names(out, "id")
	// x <= 4 matches A and C; y >= 5 matches C. Union: A, C.
	if len(got) != 2 || got[0] != "A" || got[1] != "C" {
		t.Errorf("union heads = %v", got)
	}
}

func TestRuleLinearComparisons(t *testing.T) {
	prog, err := Parse(`corner(id) :- Land(id, x, y), x + y <= 2, 2x >= 0.`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := prog.Run(hurricaneEnv())
	if err != nil {
		t.Fatal(err)
	}
	got := names(out, "id")
	if len(got) != 1 || got[0] != "A" {
		t.Errorf("corner = %v", got)
	}
	// Variable-variable comparison.
	prog2, err := Parse(`diag(id) :- Land(id, x, y), x = y.`)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := prog2.Run(hurricaneEnv())
	if err != nil {
		t.Fatal(err)
	}
	got2 := names(out2, "id")
	// A: [0,4]² contains the diagonal; B: x∈[5,9], y∈[0,4] touches x=y
	// nowhere (x >= 5 > 4 >= y); C symmetric to B.
	if len(got2) != 1 || got2[0] != "A" {
		t.Errorf("diag = %v", got2)
	}
}

func TestRuleStringInequality(t *testing.T) {
	prog, err := Parse(`others(id) :- Land(id, x, y), id != "A".`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := prog.Run(hurricaneEnv())
	if err != nil {
		t.Fatal(err)
	}
	got := names(out, "id")
	if len(got) != 2 || got[0] != "B" || got[1] != "C" {
		t.Errorf("others = %v", got)
	}

	// String variable against string variable. The parser cannot know a
	// lone variable's type and hands both over in linear form; Translate
	// knows, and makes them string atoms.
	for _, c := range []struct {
		op   string
		want int // B and C overlap nowhere and A overlaps neither: only a = b pairs survive
	}{{"!=", 0}, {"=", 3}} {
		prog, err := Parse(`q(a, b) :- Land(a, x, y), Land(b, x, y), a ` + c.op + ` b.`)
		if err != nil {
			t.Fatal(err)
		}
		out, err := prog.Run(hurricaneEnv())
		if err != nil {
			t.Fatalf("a %s b: %v", c.op, err)
		}
		if out.Len() != c.want {
			t.Errorf("a %s b: %d tuples, want %d:\n%s", c.op, out.Len(), c.want, out)
		}
	}
	// Anything else over strings is refused at translation time, in the
	// rule's own vocabulary: no message names a throwaway attribute.
	for _, src := range []string{
		`q(a) :- Land(a, x, y), Land(b, x, y), a < b.`,
		`q(a) :- Land(a, x, y), Land(b, x, y), a + b = 0.`,
		`q(a) :- Land(a, x, y), a = x.`,
		`q(a) :- Land(a, x, y), a <= 3.`,
	} {
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		_, err = prog.Run(hurricaneEnv())
		if err == nil || strings.Contains(err.Error(), "$") {
			t.Errorf("%s: err = %v, want a translation-time error naming no $ attribute", src, err)
		}
	}
}

func TestRuleRepeatedVariableInOneAtom(t *testing.T) {
	// passed-through-origin-line trick: repeating a variable within one
	// atom forces equality between two positions.
	prog, err := Parse(`sym(t) :- Hurricane(t, v, v).`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := prog.Run(hurricaneEnv())
	if err != nil {
		t.Fatal(err)
	}
	// Segment 1: x = t-1, y = 2 → x = y means t = 3. Segment 2:
	// x = t-1, y = t/2 - 1 → equal iff t = 0, outside [6,11]. So t = 3.
	if out.Len() != 1 {
		t.Fatalf("sym: %s", out)
	}
	iv, ok := out.Tuples()[0].Constraint().VarBounds("t")
	if !ok || !iv.IsPoint() || !iv.Lower.Equal(q("3")) {
		t.Errorf("t bounds = %+v", iv)
	}
}

func TestRuleErrors(t *testing.T) {
	env := hurricaneEnv()
	cases := []struct{ name, src string }{
		{"unknown relation", `a(x) :- Nope(x).`},
		{"arity mismatch", `a(x) :- Land(x).`},
		{"unsafe head", `a(z) :- Land(id, x, y).`},
		{"recursive", `a(x) :- a(x).`},
		{"type clash var", `a(n) :- Landownership(n, t, id), Land(t, x, y).`},
		{"string const at rational position", `a(x) :- Hurricane("hi", x, y).`},
		{"rational const at string position", `a(x) :- Land(3, x, y).`},
		{"string op on rational", `a(x) :- Land(id, x, y), x = "hi".`},
		{"ordered strings", `a(id) :- Land(id, x, y), id < "B".`},
		{"comparison unbound var", `a(x) :- Land(id, x, y), z <= 3.`},
	}
	for _, c := range cases {
		prog, err := Parse(c.src)
		if err != nil {
			continue // parse-time rejection is fine too
		}
		if _, err := prog.Run(env); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Parse-time errors.
	for _, src := range []string{
		``, `a(x)`, `a(x) :- Land(id, x, y)`, // missing '.'
		`a(x, x) :- Land(x, x, y).`,   // duplicate head vars
		`a("lit") :- Land(id, x, y).`, // constant in head
		`a(x) :- Land(id, x, y,).`,    // trailing comma
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

// TestCalculusMatchesAlgebra cross-checks the rule translation against the
// hand-written algebra programs for the paper's queries (CQC ≡ CQA on
// this fragment).
func TestCalculusMatchesAlgebra(t *testing.T) {
	d := hurricane.Build()
	algebra, err := d.Run(hurricane.Queries()[1].Text) // Query 2
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Parse(`passed(landId) :- Hurricane(t, x, y), Land(landId, x, y).`)
	if err != nil {
		t.Fatal(err)
	}
	calc, err := prog.Run(d.Env())
	if err != nil {
		t.Fatal(err)
	}
	if !calc.Equivalent(algebra) {
		t.Errorf("calculus and algebra disagree:\n%s\nvs\n%s", calc, algebra)
	}
}

// randomNullable draws a relation over s whose relational attributes are
// unbound in one tuple position in four (the shape internal/cqa's
// upward_test.go builds); constraint attributes get a random interval.
func randomNullable(rng *rand.Rand, s schema.Schema) *relation.Relation {
	r := relation.New(s)
	for n := 1 + rng.Intn(6); n > 0; n-- {
		row := map[string]relation.Value{}
		con := constraint.True()
		for _, a := range s.Attrs() {
			switch {
			case a.Kind == schema.Constraint:
				lo := int64(rng.Intn(5))
				con = con.With(constraint.GeConst(a.Name, rational.FromInt(lo)), constraint.LeConst(a.Name, rational.FromInt(lo+int64(rng.Intn(3)))))
			case rng.Intn(4) == 0: // NULL
			case a.Type == schema.String:
				row[a.Name] = relation.Str(string(rune('A' + rng.Intn(3))))
			default:
				row[a.Name] = relation.Rat(rational.FromInt(int64(rng.Intn(5))))
			}
		}
		r.MustAdd(relation.NewTuple(row, con))
	}
	return r
}

// TestRuleIsItsJoinProgram runs each rule beside the join program it means,
// written by hand in the query language, on relations with unbound
// relational values, and demands identical bytes. A rule takes the join's
// semantics: an unbound value at a join position is identical to an unbound
// value (cqa.Join), so conjunction is idempotent — q :- R, R is q :- R —
// where an equality selection over renamed-apart copies dropped the NULLs.
func TestRuleIsItsJoinProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	sR := schema.MustNew(schema.Rel("id", schema.String), schema.Rel("v", schema.Rational), schema.Rel("w", schema.Rational))
	sS := schema.MustNew(schema.Rel("id", schema.String), schema.Rel("v", schema.Rational))
	sT := schema.MustNew(schema.Rel("id", schema.String), schema.Con("x"))
	cases := []struct{ rules, program string }{
		{`q(id) :- R(id, v, w), R(id, v, w).`, `q = project R on id`},
		{`q(id, v, w) :- R(id, v, w), R(id, v, w).`, `q = join R and R`},
		{`q(id, w) :- R(id, v, w), S(id, v).`, `q = project (join R and S) on id, w`},
		{`q(n, w) :- S(n, k), R(n, k, w), w >= 1.`,
			`q = project (join (rename v to k in (rename id to n in S)) and (rename v to k in (rename id to n in (select w >= 1 from R)))) on n, w`},
		{`q(id, x) :- T(id, x), S(id, _), T(id, x), x <= 3.`, `q = project (select x <= 3 from (join (join T and S) and T)) on id, x`},
		{`q(v, id) :- S(id, v), R("A", v, v).`,
			`q = project (join S and (project (select id = "A", v = w from R) on v)) on v, id`},
	}
	for iter := 0; iter < 60; iter++ {
		env := cqa.Env{"R": randomNullable(rng, sR), "S": randomNullable(rng, sS), "T": randomNullable(rng, sT)}
		for _, c := range cases {
			rules, err := Parse(c.rules)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rules.Run(env)
			if err != nil {
				t.Fatalf("%s: %v", c.rules, err)
			}
			prog, err := query.Parse(c.program)
			if err != nil {
				t.Fatalf("%s: %v", c.program, err)
			}
			want, err := prog.RunOptimized(env)
			if err != nil {
				t.Fatalf("%s: %v", c.program, err)
			}
			if want = want.Normalize(); got.String() != want.String() {
				t.Fatalf("iter %d: %s\ngave\n%s\nbut %s\ngives\n%s\non R = %s\nS = %s\nT = %s",
					iter, c.rules, got, c.program, want, env["R"], env["S"], env["T"])
			}
		}
	}
}

// TestRuleVariableAtBothKinds: natural join cannot equate a relational
// attribute with a constraint one (schema.Join rejects the pair), so a
// variable met at both kinds of position keeps a throwaway name on the
// second occurrence and an explicit equality — the one place the old
// translation's = atom survives.
func TestRuleVariableAtBothKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sS := schema.MustNew(schema.Rel("id", schema.String), schema.Rel("v", schema.Rational))
	sT := schema.MustNew(schema.Rel("id", schema.String), schema.Con("x"))
	rules, err := Parse(`q(id, v) :- S(id, v), T(id, v), v >= 1.`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := query.Parse(`q = project (select v = x, v >= 1 from (join S and T)) on id, v`)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 60; iter++ {
		env := cqa.Env{"S": randomNullable(rng, sS), "T": randomNullable(rng, sT)}
		got, err := rules.Run(env)
		if err != nil {
			t.Fatal(err)
		}
		want, err := prog.RunOptimized(env)
		if err != nil {
			t.Fatal(err)
		}
		if want = want.Normalize(); got.String() != want.String() {
			t.Fatalf("iter %d: rule gave\n%s\nprogram gives\n%s\non S = %s\nT = %s", iter, got, want, env["S"], env["T"])
		}
	}
}

// TestRuleTranslationShape pins what Translate emits: selections under a
// single simultaneous rename, variable names as attribute names, throwaway
// names only where no joinable variable sits, and comparisons over shared
// variables left for the join.
func TestRuleTranslationShape(t *testing.T) {
	env := hurricaneEnv().Schemas()
	for _, c := range []struct {
		src        string
		prep       []string
		join, rest string
	}{
		{`hit(name) :- Landownership(name, t, id), Land(id, x, y), Hurricane(t, x, y), t >= 4, t <= 9.`,
			[]string{"rename landId to id in Landownership", "rename landId to id in Land", "Hurricane"},
			"join join Landownership$0 and Land$1 and Hurricane$2", "t >= 4, t <= 9"},
		{`owned(name, t) :- Landownership(name, t, id), id = "A", t >= 4.`,
			[]string{`rename landId to id in select landId = "A", t >= 4 from Landownership`}, "Landownership$0", ""},
		{`p(x) :- Land(y, x, id), Hurricane(6, x, _), Hurricane(t, v, v).`,
			[]string{"rename landId to y, y to id in Land",
				"rename t to $a1p0, y to $a1p2 in select t = 6 from Hurricane",
				"rename x to v, y to $a2p2 in select x - y = 0 from Hurricane"},
			"join join Land$0 and Hurricane$1 and Hurricane$2", ""},
	} {
		prog, err := Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		prep, join, rest, err := prog.Rules[0].Translate(env)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		for i, want := range c.prep {
			if got := prep[i].String(); got != want {
				t.Errorf("%s: atom %d = %q, want %q", c.src, i, got, want)
			}
		}
		if join.String() != c.join || rest.String() != c.rest {
			t.Errorf("%s: join = %q, rest = %q; want %q, %q", c.src, join, rest, c.join, c.rest)
		}
	}
}

func TestProgramString(t *testing.T) {
	prog, err := Parse(`a(x) :- Land(x2, x, _), Hurricane(t, x, y), x <= 3.`)
	if err != nil {
		t.Fatal(err)
	}
	s := prog.String()
	for _, want := range []string{"a(x) :- ", "Land(", "_", "x <= 3"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	// The printer is a right inverse of the parser: the printed program
	// reparses, and printing is a fixpoint.
	again, err := Parse(s)
	if err != nil {
		t.Fatalf("printed program %q does not reparse: %v", s, err)
	}
	if got := again.String(); got != s {
		t.Errorf("printer not a fixpoint: %q -> %q", s, got)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
