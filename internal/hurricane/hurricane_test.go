package hurricane

import (
	"sort"
	"testing"

	"cdb/internal/db"
	"cdb/internal/relation"
)

// names extracts the sorted distinct values of a string attribute.
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

func TestBuildSchemas(t *testing.T) {
	d := Build()
	want := []string{"Land", "Landownership", "Hurricane", "Track"}
	got := d.Names()
	if len(got) != len(want) {
		t.Fatalf("relations = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("relations = %v, want %v", got, want)
			break
		}
	}
	land, _ := d.Get("Land")
	if land.Len() != 3 {
		t.Errorf("Land tuples = %d", land.Len())
	}
	hurr, _ := d.Get("Hurricane")
	if hurr.Len() != 2 {
		t.Errorf("Hurricane tuples = %d", hurr.Len())
	}
	// Paper schema check: Hurricane is all-constraint.
	for _, a := range hurr.Schema().Attrs() {
		if a.Kind.String() != "constraint" {
			t.Errorf("Hurricane attribute %s not constraint", a.Name)
		}
	}
}

func TestQuery1WhoOwnedLandA(t *testing.T) {
	d := Build()
	out, err := d.Run(Queries()[0].Text, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := names(out, "name")
	if len(got) != 2 || got[0] != "ann" || got[1] != "bob" {
		t.Errorf("owners of A = %v, want [ann bob]", got)
	}
	if out.Schema().Has("landId") {
		t.Error("landId survived projection")
	}
	// Ownership intervals preserved: ann's tuple pins t in [0,5].
	for _, tp := range out.Tuples() {
		iv, ok := tp.Constraint().VarBounds("t")
		if !ok || !iv.HasLower || !iv.HasUpper {
			t.Errorf("ownership window lost: %s", tp)
		}
	}
}

func TestQuery2LandsPassed(t *testing.T) {
	d := Build()
	out, err := d.Run(Queries()[1].Text, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := names(out, "landId")
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("lands passed = %v, want [A B] (C must be missed)", got)
	}
}

func TestQuery3OwnersHitBetween4And9(t *testing.T) {
	d := Build()
	out, err := d.Run(Queries()[2].Text, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := names(out, "name")
	// ann owns A through t=5 and A is hit during [1,5] ∩ [4,9] = [4,5];
	// carol owns B and B is hit during [6,10] ∩ [4,9] = [6,9];
	// bob takes over A only at t=6, after the hurricane left A;
	// dave's parcel C is never hit.
	if len(got) != 2 || got[0] != "ann" || got[1] != "carol" {
		t.Errorf("hit owners = %v, want [ann carol]", got)
	}
}

func TestQuery4BufferJoin(t *testing.T) {
	d := Build()
	out, err := d.Run(Queries()[3].Text, nil)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ land, seg string }
	got := map[pair]bool{}
	for _, tp := range out.Tuples() {
		l, _ := tp.RVal("landId")
		s, _ := tp.RVal("segId")
		ls, _ := l.AsString()
		ss, _ := s.AsString()
		got[pair{ls, ss}] = true
	}
	// seg1 (y=2, x in [-1,5]) crosses A and touches B at (5,2);
	// seg2 crosses B; C's closest approach (corner (4,5) to seg1 y=2) is 3.
	want := []pair{{"A", "seg1"}, {"B", "seg1"}, {"B", "seg2"}}
	for _, p := range want {
		if !got[p] {
			t.Errorf("missing %v (got %v)", p, got)
		}
	}
	for p := range got {
		if p.land == "C" {
			t.Errorf("C within buffer 1: %v", p)
		}
	}
}

func TestQuery5KNearest(t *testing.T) {
	d := Build()
	out, err := d.Run(Queries()[4].Text, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("k-nearest returned %d rows:\n%s", out.Len(), out)
	}
	// From (10,10): B's corner (9,4) is at sqdist 37, C's corner (4,9) at
	// 37 (tie, broken by ID), A's corner (4,4) at 72.
	got := names(out, "landId")
	if len(got) != 2 || got[0] != "B" || got[1] != "C" {
		t.Errorf("nearest parcels = %v, want [B C]", got)
	}
}

func TestDatabaseSurvivesSerialisation(t *testing.T) {
	d := Build()
	path := t.TempDir() + "/hurricane.cqa"
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Re-run all five queries on the reloaded database.
	reloaded := mustLoad(t, path)
	for _, nq := range Queries() {
		a, err := d.Run(nq.Text, nil)
		if err != nil {
			t.Fatalf("%s: %v", nq.Name, err)
		}
		b, err := reloaded.Run(nq.Text, nil)
		if err != nil {
			t.Fatalf("%s after reload: %v", nq.Name, err)
		}
		if !a.Equivalent(b) {
			t.Errorf("%s: results differ after serialisation round trip", nq.Name)
		}
	}
}

func mustLoad(t *testing.T, path string) *db.Database {
	t.Helper()
	d, err := db.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
