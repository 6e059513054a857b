package cdb

import (
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/datagen"
	"cdb/internal/exec"
)

// TestDifferencePolygonMinusCounters pins the operator counters of
// BenchmarkDifferencePolygonMinus's request, `minus C0 and D0`: how the
// staircase decides is an implementation choice, what it decides is not.
// Every decision is a clip (vec), none falls back and none reaches
// Fourier–Motzkin; the values are those the atom-by-atom staircase made.
func TestDifferencePolygonMinusCounters(t *testing.T) {
	c0 := benchClusteredPolygons(0, 2, datagen.PolygonRelation)
	d0 := benchClusteredPolygons(100, 2, datagen.PolygonRelation)
	ec := exec.New(1)
	ec.SatCache = constraint.NewSatCache(0)
	out, err := cqa.DifferenceCtx(ec, c0, d0)
	if err != nil {
		t.Fatal(err)
	}
	ops := ec.Stats()
	if len(ops) != 1 {
		t.Fatalf("%d operator records, want 1", len(ops))
	}
	s := ops[0]
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"in", s.TuplesIn, 48},
		{"out", s.TuplesOut, 75},
		{"pairs", s.PairsTotal, 576},
		{"pairs_pruned", s.PairsPruned, 1},
		{"pruned", s.PrunedUnsat, 650},
		{"sat", s.SatChecks, 0},
		{"fm", s.FMDecisions, 0},
		{"vec", s.VectorHits, 979},
		{"vec_fallback", s.VectorFalls, 0},
		{"float_rej", s.FloatRejects, 535},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if int64(out.Len()) != s.TuplesOut {
		t.Errorf("%d tuples out, the record says %d", out.Len(), s.TuplesOut)
	}
}
