package rstar

import (
	"math/rand"
	"testing"

	"cdb/internal/storage"
)

func TestRectOps(t *testing.T) {
	a := Rect2(0, 0, 2, 2)
	b := Rect2(1, 1, 3, 4)
	if got := a.Area(); got != 4 {
		t.Errorf("area = %g", got)
	}
	if got := a.Margin(); got != 4 {
		t.Errorf("margin = %g", got)
	}
	u := a.Union(b)
	if u.Min[0] != 0 || u.Max[1] != 4 {
		t.Errorf("union = %v", u)
	}
	if !a.Intersects(b) || a.Intersects(Rect2(3, 3, 4, 4)) {
		t.Error("intersects wrong")
	}
	if !a.Intersects(Rect2(2, 0, 3, 1)) {
		t.Error("edge touch should intersect")
	}
	if got := a.OverlapArea(b); got != 1 {
		t.Errorf("overlap = %g", got)
	}
	if got := a.Enlargement(b); got != 8 {
		t.Errorf("enlargement = %g", got)
	}
	if !u.Contains(a) || a.Contains(u) {
		t.Error("contains wrong")
	}
	if _, err := NewRect([]float64{1}, []float64{0}); err == nil {
		t.Error("inverted rect accepted")
	}
	if _, err := NewRect([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func newTestTree(t *testing.T, dim, pageSize int, opts Options) (*Tree, *storage.MemPager) {
	t.Helper()
	pager := storage.NewMemPager(pageSize)
	tree, err := New(pager, dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tree, pager
}

func TestInsertSearchSmall(t *testing.T) {
	tree, _ := newTestTree(t, 2, 512, Options{})
	boxes := []Rect{
		Rect2(0, 0, 1, 1),
		Rect2(5, 5, 6, 6),
		Rect2(0.5, 0.5, 2, 2),
		Rect2(10, 10, 11, 11),
	}
	for i, b := range boxes {
		if err := tree.Insert(b, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Len() != 4 {
		t.Errorf("len = %d", tree.Len())
	}
	got, err := tree.Search(Rect2(0, 0, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("search hit %v", got)
	}
	all, _ := tree.Search(Rect2(-100, -100, 100, 100))
	if len(all) != 4 {
		t.Errorf("full search hit %d", len(all))
	}
	none, _ := tree.Search(Rect2(20, 20, 30, 30))
	if len(none) != 0 {
		t.Errorf("empty search hit %v", none)
	}
	if _, err := tree.Search(Rect1(0, 1)); err == nil {
		t.Error("dim mismatch accepted")
	}
	if err := tree.Insert(Rect1(0, 1), 9); err == nil {
		t.Error("insert dim mismatch accepted")
	}
}

// searchBrute is the reference implementation.
type brute struct {
	rects []Rect
	ids   []int64
}

func (b *brute) add(r Rect, id int64) {
	b.rects = append(b.rects, r)
	b.ids = append(b.ids, id)
}

func (b *brute) search(q Rect) map[int64]bool {
	out := map[int64]bool{}
	for i, r := range b.rects {
		if r.Intersects(q) {
			out[b.ids[i]] = true
		}
	}
	return out
}

func randRect(rng *rand.Rand, dim int, coordMax, sizeMax float64) Rect {
	min := make([]float64, dim)
	max := make([]float64, dim)
	for i := 0; i < dim; i++ {
		min[i] = rng.Float64() * coordMax
		max[i] = min[i] + rng.Float64()*sizeMax
	}
	return Rect{Min: min, Max: max}
}

// TestQuickTreeMatchesBruteForce inserts thousands of random rectangles
// (forcing many splits and reinsertions) and cross-checks every query
// against the brute-force reference.
func TestQuickTreeMatchesBruteForce(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		dim := dim
		tree, _ := newTestTree(t, dim, 512, Options{})
		ref := &brute{}
		rng := rand.New(rand.NewSource(int64(dim)))
		for i := 0; i < 2000; i++ {
			r := randRect(rng, dim, 1000, 50)
			if err := tree.Insert(r, int64(i)); err != nil {
				t.Fatal(err)
			}
			ref.add(r, int64(i))
		}
		if tree.Height() < 2 {
			t.Fatalf("dim %d: tree did not grow (height %d)", dim, tree.Height())
		}
		for k := 0; k < 50; k++ {
			q := randRect(rng, dim, 1000, 200)
			got, err := tree.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.search(q)
			if len(got) != len(want) {
				t.Fatalf("dim %d query %d: got %d ids, want %d", dim, k, len(got), len(want))
			}
			for _, id := range got {
				if !want[id] {
					t.Fatalf("dim %d query %d: spurious id %d", dim, k, id)
				}
			}
		}
	}
}

func TestNodeFillInvariant(t *testing.T) {
	tree, _ := newTestTree(t, 2, 512, Options{})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 3000; i++ {
		if err := tree.Insert(randRect(rng, 2, 3000, 100), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Walk all nodes: every non-root node must satisfy m <= count <= M, and
	// every parent rect must cover its child's MBR.
	var walk func(id storage.PageID, isRoot bool) Rect
	var fail bool
	walk = func(id storage.PageID, isRoot bool) Rect {
		n, err := tree.load(id)
		if err != nil {
			t.Fatal(err)
		}
		if !isRoot && (len(n.entries) < tree.minE || len(n.entries) > tree.maxE) {
			t.Errorf("node %d has %d entries (m=%d M=%d)", id, len(n.entries), tree.minE, tree.maxE)
			fail = true
		}
		if !n.leaf {
			for _, e := range n.entries {
				childMBR := walk(e.child, false)
				if !e.rect.Contains(childMBR) {
					t.Errorf("parent entry %v does not cover child MBR %v", e.rect, childMBR)
					fail = true
				}
			}
		}
		return n.mbr()
	}
	walk(tree.root, true)
	if fail {
		t.FailNow()
	}
}

func TestOpenPersistedTree(t *testing.T) {
	pager := storage.NewMemPager(512)
	tree, err := New(pager, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		if err := tree.Insert(randRect(rng, 2, 100, 10), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	re, err := Open(pager, tree.MetaPage())
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 500 || re.Dim() != 2 || re.Height() != tree.Height() {
		t.Errorf("reopened: len=%d dim=%d h=%d", re.Len(), re.Dim(), re.Height())
	}
	a, _ := tree.Search(Rect2(0, 0, 50, 50))
	b, _ := re.Search(Rect2(0, 0, 50, 50))
	if len(a) != len(b) {
		t.Errorf("reopened search differs: %d vs %d", len(a), len(b))
	}
	if _, err := Open(pager, tree.root); err == nil {
		t.Error("opening a non-meta page succeeded")
	}
}

func TestSearchCountsAccesses(t *testing.T) {
	tree, pager := newTestTree(t, 2, 512, Options{})
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 2000; i++ {
		if err := tree.Insert(randRect(rng, 2, 3000, 100), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	pager.ResetStats()
	if _, err := tree.Search(Rect2(0, 0, 10, 10)); err != nil {
		t.Fatal(err)
	}
	small := pager.Stats().Reads
	pager.ResetStats()
	if _, err := tree.Search(Rect2(0, 0, 3000, 3000)); err != nil {
		t.Fatal(err)
	}
	large := pager.Stats().Reads
	if small == 0 {
		t.Error("search cost zero accesses")
	}
	if small >= large {
		t.Errorf("small query (%d accesses) not cheaper than full scan (%d)", small, large)
	}
}

func TestReinsertImprovesTree(t *testing.T) {
	// The ablation hook: with forced reinsertion disabled the tree must
	// still be correct (brute-force check), and with it enabled a skewed
	// workload should not be worse on total accesses.
	rng := rand.New(rand.NewSource(21))
	var rects []Rect
	for i := 0; i < 3000; i++ {
		rects = append(rects, randRect(rng, 2, 3000, 80))
	}
	build := func(opts Options) (*Tree, *storage.MemPager) {
		pager := storage.NewMemPager(512)
		tree, err := New(pager, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rects {
			if err := tree.Insert(r, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return tree, pager
	}
	star, starPager := build(Options{})
	plain, plainPager := build(Options{DisableReinsert: true})
	ref := &brute{}
	for i, r := range rects {
		ref.add(r, int64(i))
	}
	starPager.ResetStats()
	plainPager.ResetStats()
	var starReads, plainReads uint64
	for k := 0; k < 100; k++ {
		q := randRect(rng, 2, 3000, 150)
		want := ref.search(q)
		for _, tc := range []struct {
			tree  *Tree
			pager *storage.MemPager
			reads *uint64
		}{{star, starPager, &starReads}, {plain, plainPager, &plainReads}} {
			before := tc.pager.Stats().Reads
			got, err := tc.tree.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			*tc.reads += tc.pager.Stats().Reads - before
			if len(got) != len(want) {
				t.Fatalf("query %d: got %d, want %d", k, len(got), len(want))
			}
		}
	}
	t.Logf("R* reads=%d, plain-split reads=%d over 100 queries", starReads, plainReads)
}

// Dim returns the tree's dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Height returns the number of levels (1 for a single leaf).
func (t *Tree) Height() int { return t.height }

// Contains reports whether r fully contains o.
func (r Rect) Contains(o Rect) bool {
	for i := range r.Min {
		if o.Min[i] < r.Min[i] || o.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}
