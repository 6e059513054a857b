package constraint

import (
	"runtime"
	"testing"

	"cdb/internal/rational"
)

// TestBoxBlockSizeClass: a box the kernel builds is one allocation that
// fills a Go size class — 176 bytes for at most two atoms, 288 for three or
// four — read off the allocator's byte count over a thousand BoxMerges and
// dropVars. One byte more in the memo boxes (an Envelope past 16 bytes, a
// field out of once's padding) moves both into the next class, 192 and 320.
func TestBoxBlockSizeClass(t *testing.T) {
	box := func(lo, hi int64, vars ...string) Conjunction {
		var cs []Constraint
		for _, v := range vars {
			cs = append(cs, GeConst(v, rational.FromInt(lo)), LeConst(v, rational.FromInt(hi)))
		}
		return And(cs...).Canon()
	}
	x1, x2 := box(0, 4, "x"), box(2, 6, "x")
	xy1, xy2 := box(0, 4, "x", "y"), box(2, 6, "x", "y")
	for _, c := range []struct {
		what  string
		build func() Conjunction
		bytes uint64
	}{
		{"BoxMerge, one variable", func() Conjunction { j, _ := BoxMerge(x1, x2); return j }, 176},
		{"BoxMerge, two variables", func() Conjunction { j, _ := BoxMerge(xy1, xy2); return j }, 288},
		{"dropVars to one variable", func() Conjunction { return xy1.dropVars([]string{"y"}) }, 176},
	} {
		const n = 1000
		keep := make([]Conjunction, n)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := range keep {
			keep[i] = c.build()
		}
		runtime.ReadMemStats(&ms)
		if got := (ms.TotalAlloc - before) / n; got != c.bytes {
			t.Errorf("%s: %d bytes per box, want %d", c.what, got, c.bytes)
		}
		if !keep[n-1].IsBox() {
			t.Errorf("%s: not a known box", c.what)
		}
	}
}
