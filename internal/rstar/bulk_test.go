package rstar

import (
	"math/rand"
	"testing"

	"cdb/internal/storage"
)

func TestBulkLoadMatchesBruteForce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 2500} {
		pager := storage.NewMemPager(512)
		rng := rand.New(rand.NewSource(int64(n)))
		ref := &brute{}
		var items []BulkItem
		for i := 0; i < n; i++ {
			r := randRect(rng, 2, 3000, 100)
			items = append(items, BulkItem{Rect: r, Data: int64(i)})
			ref.add(r, int64(i))
		}
		tree, err := BulkLoad(pager, 2, items, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tree.Len() != n {
			t.Errorf("n=%d: Len = %d", n, tree.Len())
		}
		for k := 0; k < 25; k++ {
			q := randRect(rng, 2, 3000, 400)
			got, err := tree.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.search(q)
			if len(got) != len(want) {
				t.Fatalf("n=%d query %d: got %d, want %d", n, k, len(got), len(want))
			}
			for _, id := range got {
				if !want[id] {
					t.Fatalf("n=%d query %d: spurious id %d", n, k, id)
				}
			}
		}
	}
}

func TestBulkLoadedTreeAcceptsUpdates(t *testing.T) {
	pager := storage.NewMemPager(512)
	rng := rand.New(rand.NewSource(8))
	ref := &brute{}
	var items []BulkItem
	for i := 0; i < 1000; i++ {
		r := randRect(rng, 2, 1000, 40)
		items = append(items, BulkItem{Rect: r, Data: int64(i)})
	}
	tree, err := BulkLoad(pager, 2, items, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Insert more.
	for i := 1000; i < 1400; i++ {
		r := randRect(rng, 2, 1000, 40)
		if err := tree.Insert(r, int64(i)); err != nil {
			t.Fatal(err)
		}
		items = append(items, BulkItem{Rect: r, Data: int64(i)})
	}
	for _, it := range items {
		ref.add(it.Rect, it.Data)
	}
	if tree.Len() != 1400 {
		t.Errorf("Len = %d", tree.Len())
	}
	for k := 0; k < 25; k++ {
		q := randRect(rng, 2, 1000, 200)
		got, err := tree.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.search(q)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d, want %d", k, len(got), len(want))
		}
	}
}

func TestBulkLoadNodeFill(t *testing.T) {
	pager := storage.NewMemPager(512)
	rng := rand.New(rand.NewSource(3))
	var items []BulkItem
	for i := 0; i < 3000; i++ {
		items = append(items, BulkItem{Rect: randRect(rng, 2, 3000, 50), Data: int64(i)})
	}
	tree, err := BulkLoad(pager, 2, items, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// STR packing should need close to the minimum number of leaves:
	// count all nodes and compare with ceil-based bound.
	var nodes, entries int
	var walk func(id storage.PageID)
	walk = func(id storage.PageID) {
		n, err := tree.load(id)
		if err != nil {
			t.Fatal(err)
		}
		nodes++
		if n.leaf {
			entries += len(n.entries)
			return
		}
		for _, e := range n.entries {
			walk(e.child)
		}
	}
	walk(tree.root)
	if entries != 3000 {
		t.Errorf("leaf entries = %d", entries)
	}
	minLeaves := (3000 + tree.maxE - 1) / tree.maxE
	// Allow a small slack for slab rounding.
	if nodes > minLeaves+minLeaves/4+3 {
		t.Errorf("bulk load used %d nodes; ~%d leaves expected", nodes, minLeaves)
	}
	// Incremental build of the same data uses strictly more nodes.
	pager2 := storage.NewMemPager(512)
	inc, err := New(pager2, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := inc.Insert(it.Rect, it.Data); err != nil {
			t.Fatal(err)
		}
	}
	var incNodes int
	var walk2 func(id storage.PageID)
	walk2 = func(id storage.PageID) {
		n, err := inc.load(id)
		if err != nil {
			t.Fatal(err)
		}
		incNodes++
		if !n.leaf {
			for _, e := range n.entries {
				walk2(e.child)
			}
		}
	}
	walk2(inc.root)
	if incNodes <= nodes {
		t.Errorf("incremental build used %d nodes, bulk %d — packing should be denser", incNodes, nodes)
	}
	t.Logf("bulk nodes=%d incremental nodes=%d (M=%d)", nodes, incNodes, tree.maxE)
}

func TestBulkLoadValidation(t *testing.T) {
	pager := storage.NewMemPager(512)
	if _, err := BulkLoad(pager, 2, []BulkItem{{Rect: Rect1(0, 1)}}, Options{}); err == nil {
		t.Error("dim mismatch accepted")
	}
}
