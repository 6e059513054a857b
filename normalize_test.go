package cdb

import (
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/exec"
	"cdb/internal/relation"
)

// TestNormalizeMakesNoDecisions: normalising a two-variable operator output
// eliminates no variable and asks the server's sat-cache nothing — every
// tuple is decided by the planar rule of constraint.SimplifyWith. (Before
// the rule each tuple cost one lookup for satisfiability plus one per atom
// for entailment, nearly all of them misses.) The polygon-minus fixture is
// the staircase's pieces as built, redundant atoms and all; normalising them
// must give the bytes normalising the difference operator's output gives.
func TestNormalizeMakesNoDecisions(t *testing.T) {
	pieces := polygonMinusPieces(t)
	if got, want := pieces.Normalize().String(), polygonMinusResult(t).Normalize().String(); got != want {
		t.Errorf("polygon-minus: the normalised pieces differ from the normalised difference\npieces:\n%s\ndifference:\n%s", got, want)
	}
	for name, r := range map[string]*relation.Relation{
		"polygon-minus": pieces,
		"box-join":      boxJoinResult(t),
	} {
		ec := exec.New(1)
		ec.SatCache = constraint.NewSatCache(0)
		fm := constraint.DecisionCount()
		norm := r.NormalizeWith(ec.SatFunc())
		if d := constraint.DecisionCount() - fm; d != 0 {
			t.Errorf("%s: normalising %d tuples ran %d Fourier-Motzkin decisions, want 0", name, r.Len(), d)
		}
		if st := ec.SatCache.Stats(); st.Hits+st.Misses != 0 {
			t.Errorf("%s: normalising %d tuples made %d sat-cache lookups, want 0", name, r.Len(), st.Hits+st.Misses)
		}
		if norm.Len() == 0 || norm.Len() > r.Len() {
			t.Errorf("%s: normalised %d tuples into %d", name, r.Len(), norm.Len())
		}
		if ref := r.Normalize(); norm.String() != ref.String() {
			t.Errorf("%s: normalising through the cache and without it differ", name)
		}
	}
}

// TestNormalizeAllocs caps the allocations of normalising the
// polygon-minus staircase pieces as built: a few per tuple (the surviving
// atoms, the fresh memo boxes of a shrunk conjunction, the dedup tables),
// where the elimination-based pass made several hundred per tuple.
func TestNormalizeAllocs(t *testing.T) {
	r := polygonMinusPieces(t)
	perTuple := testing.AllocsPerRun(5, func() { _ = r.Normalize() }) / float64(r.Len())
	t.Logf("%d tuples, %.1f allocations per tuple", r.Len(), perTuple)
	if perTuple > 8 {
		t.Errorf("Normalize: %.1f allocations per tuple on the %d staircase pieces, ceiling 8", perTuple, r.Len())
	}
}
