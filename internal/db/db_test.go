package db

import (
	"strings"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

const sampleDB = `
# The paper's Example 3 relation.
relation R
schema x rational relational, y rational constraint
tuple x=1 |
tuple | y = 1
tuple x=17 | y = 17
end

relation Land
schema landId string relational, x rational constraint, y rational constraint
tuple landId="A" | x >= 0, x <= 2, y >= 0, y <= 2
tuple landId=B | x >= 3, x <= 5, y >= 0, y <= 1   # unquoted id
end
`

func TestLoadAndRun(t *testing.T) {
	d, err := Load(strings.NewReader(sampleDB))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Names(); len(got) != 2 || got[0] != "R" || got[1] != "Land" {
		t.Fatalf("names = %v", got)
	}
	r, _ := d.Get("R")
	if r.Len() != 3 {
		t.Fatalf("R has %d tuples", r.Len())
	}
	// Example 3 behaviour through the full stack.
	out, err := d.Run(`A = select y = 17 from R`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("select y=17: %d tuples, want 2:\n%s", out.Len(), out)
	}
	out2, err := d.Run(`A = select x = 17 from R`)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Len() != 1 {
		t.Errorf("select x=17: %d tuples, want 1:\n%s", out2.Len(), out2)
	}
	// Unquoted string id loaded correctly.
	out3, err := d.Run(`A = select landId = B from Land`)
	if err != nil {
		t.Fatal(err)
	}
	if out3.Len() != 1 {
		t.Errorf("landId=B: %d tuples", out3.Len())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d, err := Load(strings.NewReader(sampleDB))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("reload: %v\nsaved:\n%s", err, buf.String())
	}
	for _, name := range d.Names() {
		a, _ := d.Get(name)
		b, ok := d2.Get(name)
		if !ok {
			t.Fatalf("relation %s lost", name)
		}
		if !a.Equivalent(b) {
			t.Errorf("relation %s changed by round trip:\n%s\nvs\n%s", name, a, b)
		}
	}
}

func TestSaveLoadFractionsAndNegatives(t *testing.T) {
	d := New()
	r := relation.New(schema.MustNew(
		schema.Rel("age", schema.Rational), schema.Con("t")))
	r.MustAdd(relation.NewTuple(
		map[string]relation.Value{"age": relation.Rat(rational.MustParse("-7/2"))},
		constraint.And(
			constraint.GeConst("t", rational.MustParse("-1/3")),
			constraint.LtConst("t", rational.MustParse("22/7")))))
	if err := d.Put("Odd", r); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	r2, _ := d2.Get("Odd")
	if !r.Equivalent(r2) {
		t.Errorf("round trip changed semantics:\n%s\nvs\n%s\nsaved:\n%s", r, r2, buf.String())
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"tuple before schema", "relation R\ntuple x=1 |\nend\n"},
		{"schema outside block", "schema x rational constraint\n"},
		{"unknown directive", "banana split\n"},
		{"nested relation", "relation R\nrelation S\n"},
		{"unterminated", "relation R\nschema x rational constraint\n"},
		{"bad schema item", "relation R\nschema x rational\nend\n"},
		{"bad kind", "relation R\nschema x rational wavy\nend\n"},
		{"constraint on string", "relation R\nschema s string constraint\nend\n"},
		{"unknown attr binding", "relation R\nschema x rational constraint\ntuple z=1 |\nend\n"},
		{"string in constraint", "relation R\nschema x rational constraint\ntuple | x = \"a\"\nend\n"},
		{"neq in stored tuple", "relation R\nschema x rational constraint\ntuple | x != 3\nend\n"},
		{"end outside", "end\n"},
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestPutGet(t *testing.T) {
	d := New()
	if err := d.Put("", nil); err == nil {
		t.Error("empty name accepted")
	}
	r := relation.New(schema.MustNew(schema.Con("x")))
	if err := d.Put("X", r); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("X"); !ok {
		t.Error("Get failed")
	}
	if _, ok := d.Get("Y"); ok {
		t.Error("Get found a relation never put")
	}
	if names := d.Names(); len(names) != 1 || names[0] != "X" {
		t.Errorf("names = %v, want [X]", names)
	}
}

func TestFileRoundTrip(t *testing.T) {
	d, err := Load(strings.NewReader(sampleDB))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/db.cqa"
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Names()) != 2 {
		t.Errorf("names = %v", d2.Names())
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestFirstLine: the first line that is not blank, trimmed — LF or CRLF
// line ends, leading blank lines, no newline at all.
func TestFirstLine(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"", ""},
		{"R = select x >= 1 from Land", "R = select x >= 1 from Land"},
		{"\n\n  \t\n  R0 = join A and B  \nR1 = project R0 on x", "R0 = join A and B"},
		{"R0 = join A and B\r\nR1 = project R0 on x\r\n", "R0 = join A and B"},
		{"\r\n\r\n  S = A\r\n", "S = A"},
		{" \t\r\n \n\t", ""},
		{"\n\nlast", "last"},
	} {
		if got := FirstLine(c.src); got != c.want {
			t.Errorf("FirstLine(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}
