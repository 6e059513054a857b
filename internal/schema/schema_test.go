package schema

import (
	"fmt"
	"strings"
	"testing"
)

func land() Schema {
	return MustNew(Rel("landId", String), Con("x"), Con("y"))
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Rel("", String)); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New(Rel("a", String), Rel("a", Rational)); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := New(Attribute{Name: "c", Type: String, Kind: Constraint}); err == nil {
		t.Error("string constraint attribute accepted")
	}
	s, err := New(Rel("name", String), Rel("t0", Rational), Con("t"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestAccessors(t *testing.T) {
	s := land()
	if !s.Has("x") || s.Has("z") {
		t.Error("Has wrong")
	}
	a, ok := s.Attr("landId")
	if !ok || a.Kind != Relational || a.Type != String {
		t.Errorf("Attr = %+v, %v", a, ok)
	}
	if got := s.Names(); len(got) != 3 || got[0] != "landId" || got[2] != "y" {
		t.Errorf("Names = %v", got)
	}
	if got := s.ConstraintNames(); len(got) != 2 || got[0] != "x" {
		t.Errorf("ConstraintNames = %v", got)
	}
	if got := s.RelationalNames(); len(got) != 1 || got[0] != "landId" {
		t.Errorf("RelationalNames = %v", got)
	}
}

func TestProject(t *testing.T) {
	s := land()
	p, err := s.Project("y", "landId")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Names(); len(got) != 2 || got[0] != "y" || got[1] != "landId" {
		t.Errorf("projected names = %v", got)
	}
	if _, err := s.Project("nope"); err == nil {
		t.Error("projecting unknown attribute succeeded")
	}
}

func TestRename(t *testing.T) {
	s := land()
	r, err := s.RenameAll(map[string]string{"x": "lon"})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Has("lon") || r.Has("x") {
		t.Error("rename did not apply")
	}
	if _, err := s.RenameAll(map[string]string{"nope": "a"}); err == nil {
		t.Error("renaming unknown attribute succeeded")
	}
	if _, err := s.RenameAll(map[string]string{"x": "y"}); err == nil {
		t.Error("renaming onto existing attribute succeeded")
	}
}

func TestEqualOrderInsensitive(t *testing.T) {
	a := MustNew(Con("x"), Rel("id", String))
	b := MustNew(Rel("id", String), Con("x"))
	if !a.Equal(b) {
		t.Error("order-insensitive equality failed")
	}
	c := MustNew(Rel("id", String), Rel("x", Rational))
	if a.Equal(c) {
		t.Error("kind mismatch considered equal")
	}
	if a.Equal(MustNew(Con("x"))) {
		t.Error("different arity considered equal")
	}
}

func TestJoin(t *testing.T) {
	land := land()
	hurricane := MustNew(Con("t"), Con("x"), Con("y"))
	j, err := land.Join(hurricane)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"landId", "x", "y", "t"}
	got := j.Names()
	if len(got) != len(want) {
		t.Fatalf("joined names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("joined names = %v, want %v", got, want)
			break
		}
	}
	// Conflicting shared attribute.
	bad := MustNew(Rel("x", Rational))
	if _, err := land.Join(bad); err == nil {
		t.Error("kind conflict accepted in join")
	}
}

func TestString(t *testing.T) {
	got := MustNew(Rel("name", String), Con("t")).String()
	want := "[name: string, relational; t: rational, constraint]"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// TestStringMatchesFmt: Attribute.String and Schema.String write the bytes
// of their former fmt / strings.Join forms, long and out-of-range values
// included.
func TestStringMatchesFmt(t *testing.T) {
	long := strings.Repeat("attribute", 40)
	for _, attrs := range [][]Attribute{
		nil,
		{Rel("landId", String), Con("x"), Con("y")},
		{Rel(long, Rational), Con(long + "2")},
		{{Name: "odd", Type: Type(7), Kind: Kind(9)}},
	} {
		s := Schema{attrs: attrs}
		parts := make([]string, len(attrs))
		for i, a := range attrs {
			parts[i] = fmt.Sprintf("%s: %s, %s", a.Name, a.Type, a.Kind)
			if got := a.String(); got != parts[i] {
				t.Errorf("Attribute.String = %q, want %q", got, parts[i])
			}
		}
		if got, want := s.String(), "["+strings.Join(parts, "; ")+"]"; got != want {
			t.Errorf("Schema.String = %q, want %q", got, want)
		}
	}
}
