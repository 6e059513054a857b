package calculus

// The two faces of the language — query programs (internal/query) and
// rules — read one grammar: the tokens of query.Lex and the comparisons of
// query.ParseComparison. These tests run the same text through both.

import (
	"regexp"
	"strings"
	"testing"

	"cdb/internal/cqa"
	"cdb/internal/db"
	"cdb/internal/query"
)

// selectBoth runs a select condition through the query face and the same
// comparison through a rule over R(name, x), and returns the names each
// answer holds: the query's "name" column and the rule's head variable n.
func selectBoth(t *testing.T, env cqa.Env, rel, cond, rule string) (asQuery, asRule []string) {
	t.Helper()
	asQuery, asRule, qerr, rerr := answerBoth(t, env, rel, cond, rule)
	if qerr != nil {
		t.Fatalf("query face, select %s: %v", cond, qerr)
	}
	if rerr != nil {
		t.Fatalf("rule face, %s: %v", rule, rerr)
	}
	return asQuery, asRule
}

// answerBoth is selectBoth with each face's evaluation error returned, not
// fatal: a face may refuse the comparison when it binds it.
func answerBoth(t *testing.T, env cqa.Env, rel, cond, rule string) (asQuery, asRule []string, qerr, rerr error) {
	t.Helper()
	prog, err := query.Parse("S = select " + cond + " from " + rel)
	if err != nil {
		t.Fatalf("query face: %v", err)
	}
	if out, err := prog.RunOptimizedCtx(env, nil); err == nil {
		asQuery = names(out, "name")
	} else {
		qerr = err
	}
	rules, err := Parse(rule)
	if err != nil {
		t.Fatalf("rule face: %v", err)
	}
	if got, err := rules.RunCtx(env, nil); err == nil {
		asRule = names(got, "n")
	} else {
		rerr = err
	}
	return asQuery, asRule, qerr, rerr
}

func loadText(t *testing.T, src string) cqa.Env {
	t.Helper()
	d, err := db.Load(strings.NewReader(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	return d.Env()
}

// TestStringLiteralFaces: a string literal is a Go string literal in the
// text format, in every printed row and in both faces. Each literal — as
// the file writes it and as its row prints it — selects exactly its own
// tuple, through a select condition and through a rule's comparison.
func TestStringLiteralFaces(t *testing.T) {
	env := loadText(t, `relation R
schema name string relational, x rational constraint
tuple name="a\nb" | x = 1
tuple name="anb" | x = 2
tuple name="\x41" | x = 3
tuple name="x41" | x = 4
end
`)
	lits := map[string]string{`"\x41"`: "A"} // as the file writes it
	printed := regexp.MustCompile(`name=("(?:[^"\\]|\\.)*")`)
	r, _ := env.Lookup("R")
	for _, row := range r.Rows() {
		v, _ := row.RVal("name")
		name, _ := v.AsString()
		m := printed.FindStringSubmatch(row.String())
		if m == nil {
			t.Fatalf("row %s prints no quoted name", row)
		}
		lits[m[1]] = name
	}
	if len(lits) != 5 {
		t.Fatalf("literals %q: want the four printed rows and the file's \\x41", lits)
	}
	for lit, want := range lits {
		asQuery, asRule := selectBoth(t, env, "R", "name = "+lit, "q(n) :- R(n, x), n = "+lit+".")
		for face, got := range map[string][]string{"query": asQuery, "rule": asRule} {
			if len(got) != 1 || got[0] != want {
				t.Errorf("%s face: %s selects %q, want %q", face, lit, got, want)
			}
		}
	}
}

// TestUnicodeIdentifierFaces: identifiers are scanned by rune, so a
// non-ASCII attribute loads from text and selects through both faces.
func TestUnicodeIdentifierFaces(t *testing.T) {
	env := loadText(t, `relation U
schema name string relational, é rational constraint
tuple name="ñ" | é >= 0, é <= 1
tuple name="Ω" | é >= 2, é <= 3
end
`)
	for _, c := range []struct{ cond, rule, want string }{
		{`é >= 2`, `q(n) :- U(n, é), é >= 2.`, "Ω"},
		{`é <= 1/2`, `q(n) :- U(n, Ω), 2Ω <= 1.`, "ñ"},
	} {
		asQuery, asRule := selectBoth(t, env, "U", c.cond, c.rule)
		for face, got := range map[string][]string{"query": asQuery, "rule": asRule} {
			if len(got) != 1 || got[0] != c.want {
				t.Errorf("%s face: %s / %s selects %q, want %q", face, c.cond, c.rule, got, c.want)
			}
		}
	}
}

// faceAtoms parses the comparison list s as a select condition and as a
// rule's comparisons. A face that rejects s, or reads it as more than a
// comparison list, returns ok false.
func faceAtoms(s string) (conds []query.Comparison, qok bool, comps []CompAtom, rok bool) {
	if prog, err := query.Parse("R = select " + s + "\nfrom T"); err == nil && len(prog.Stmts) == 1 {
		if e := prog.Stmts[0].Expr; e.Kind == query.ExprSelect && e.Src.Kind == query.ExprScan && e.Src.Name == "T" {
			conds, qok = e.Conds, true
		}
	}
	if prog, err := Parse("q(x) :- T(x), " + s + "\n."); err == nil && len(prog.Rules) == 1 && len(prog.Rules[0].Rels) == 1 {
		comps, rok = prog.Rules[0].Comps, true
	}
	return conds, qok, comps, rok
}

// sameAtom: the same operator and either the same string literal against
// the same variable, or the same linear form.
func sameAtom(c query.Comparison, a CompAtom) bool {
	switch {
	case c.Op != a.Op:
		return false
	case c.L.IsStr:
		return a.IsStr && a.StrLit == c.L.Str && a.Var == c.R.Var
	case c.R.IsStr:
		return a.IsStr && a.StrLit == c.R.Str && a.Var == c.L.Var
	}
	return !a.IsStr && a.Expr.Equal(c.L.Linear.Sub(c.R.Linear))
}

// faceCases are the comparisons the two faces once read differently, with
// the rule's rendering of what both read now ("" when both reject).
var faceCases = []struct{ src, want string }{
	{`n = "a\nb"`, `n = "a\nb"`},         // an escape decodes as strconv.Unquote does
	{`n = "\x41"`, `n = "A"`},            // in both faces, as in the text format
	{`x <= .5`, `x <= 1/2`},              // '.' starts a number when a digit follows
	{`_x >= 1`, `_x >= 1`},               // an identifier may start with '_'
	{`in >= 1`, `in >= 1`},               // a keyword is an identifier ...
	{`x <= 2 in`, ``},                    // ... except apart from a coefficient's number
	{`2in <= 1`, `2in <= 1`},             // written against it, it is the variable
	{`é >= 1`, `é >= 1`},                 // identifiers are scanned by rune
	{`1/2x <= 3`, `1/2x <= 3`},           // fractional coefficients
	{`x >= 1 % c`, `x >= 1`},             // one comment rule: '%' ...
	{`x >= 1 -- c`, `x >= 1`},            // ... "--" ...
	{`x >= 1 # c`, `x >= 1`},             // ... and '#'
	{`n = "\q"`, ``},                     // not a Go escape
	{`n < "a"`, ``},                      // strings compare by = and != only
	{`"a" = "b"`, ``},                    // ... with one identifier
	{`x, y >= 1`, ``},                    // a condition is a comparison
	{`x <= 1, y >= 2`, `x <= 1, y >= 2`}, // a list is one atom per comparison
	{`q - q = 0`, `0 = 0`},               // a variable may cancel out (bound or not: see below)
}

func TestComparisonFaces(t *testing.T) {
	for _, c := range faceCases {
		conds, qok, comps, rok := faceAtoms(c.src)
		if qok != (c.want != "") || rok != (c.want != "") {
			t.Errorf("%s: query face accepts %v, rule face %v; want both %v", c.src, qok, rok, c.want != "")
			continue
		}
		var got []string
		for i, a := range comps {
			got = append(got, a.String())
			if !sameAtom(conds[i], a) {
				t.Errorf("%s: atom %d reads %s as a query, %s as a rule", c.src, i, conds[i], a)
			}
		}
		if len(conds) != len(comps) || strings.Join(got, ", ") != c.want {
			t.Errorf("%s: query face %q, rule face %q; want %s", c.src, conds, got, c.want)
		}
	}
	// Bound against T(name, x), a variable that cancels out is still one
	// the comparison names: unknown, or a string, both faces refuse it.
	env := loadText(t, `relation T
schema name string relational, x rational constraint
tuple name="a" | x = 1
tuple name="b" | x = 2
end
`)
	for _, c := range []struct{ cond, rule, want string }{
		{`x - x = 0`, `s(n) :- T(n, x), x - x = 0.`, "a b"},
		{`q - q = 0`, `s(n) :- T(n, x), q - q = 0.`, ""},
		{`name - name = 0`, `s(n) :- T(n, x), n - n = 0.`, ""},
	} {
		asQuery, asRule, qerr, rerr := answerBoth(t, env, "T", c.cond, c.rule)
		if (qerr != nil) != (c.want == "") || (rerr != nil) != (c.want == "") {
			t.Errorf("%s / %s: query face error %v, rule face error %v; want both to refuse: %v", c.cond, c.rule, qerr, rerr, c.want == "")
			continue
		}
		for face, got := range map[string][]string{"query": asQuery, "rule": asRule} {
			if strings.Join(got, " ") != c.want {
				t.Errorf("%s face: %s / %s selects %q, want %q", face, c.cond, c.rule, got, c.want)
			}
		}
	}
}

// FuzzComparisonFaces: a comparison list one face accepts, the other
// accepts too, as the same atoms.
func FuzzComparisonFaces(f *testing.F) {
	for _, c := range faceCases {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, s string) {
		conds, qok, comps, rok := faceAtoms(s)
		if qok != rok || len(conds) != len(comps) {
			t.Fatalf("%q: query face accepts %v (%d atoms), rule face %v (%d atoms)", s, qok, len(conds), rok, len(comps))
		}
		for i, a := range comps {
			if !sameAtom(conds[i], a) {
				t.Fatalf("%q: atom %d reads %s as a query, %s as a rule", s, i, conds[i], a)
			}
		}
	})
}
