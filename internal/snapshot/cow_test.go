package snapshot

import (
	"fmt"
	"math/rand"
	"testing"

	"cdb/internal/db"
	"cdb/internal/storage"
)

// Property tests for copy-on-write accounting. These run in-package so
// they can compare the store's published counters against its actual
// manifests, refcounts and free list — the numbers the metrics report
// must be derivable from first principles, not merely self-consistent.

// distinctPages returns the set of page slots a manifest references.
func distinctPages(m *Manifest) map[storage.PageID]bool {
	set := make(map[storage.PageID]bool)
	for _, id := range m.pageIDs() {
		set[id] = true
	}
	return set
}

// checkInvariants asserts the accounting identities that must hold after
// every store operation:
//
//	pager Allocs            == PagesWritten - PagesReused   (every write either grows the file or recycles a slot)
//	PagesLive + PagesFree   == file high-water              (every allocated slot is live or free, never lost)
//	refs                    == reference counts recomputed from live manifests
//	PagesShared + PagesWritten == total page refs staged by commits
func checkInvariants(t *testing.T, s *Store) {
	t.Helper()
	st := s.Stats()
	if int64(st.Pager.Allocs) != st.PagesWritten-st.PagesReused {
		t.Fatalf("allocs %d != written %d - reused %d", st.Pager.Allocs, st.PagesWritten, st.PagesReused)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	high := 0
	if hw, ok := s.pager.(interface{ HighWater() storage.PageID }); ok {
		high = int(hw.HighWater())
	}
	if st.PagesLive+st.PagesFree != high {
		t.Fatalf("live %d + free %d != high-water %d (slots leaked)", st.PagesLive, st.PagesFree, high)
	}
	// Recompute refcounts from the live manifests (per reference, with
	// multiplicity — a page backing two identical chunks counts twice,
	// matching what Release will decrement).
	want := make(map[storage.PageID]int)
	for _, m := range s.snaps {
		for _, id := range m.pageIDs() {
			want[id]++
		}
	}
	if len(want) != len(s.refs) {
		t.Fatalf("refcount table tracks %d pages, manifests reference %d", len(s.refs), len(want))
	}
	for id, n := range want {
		if s.refs[id] != n {
			t.Fatalf("page %d refcount %d, manifests say %d", id, s.refs[id], n)
		}
	}
	// No free slot may be referenced.
	for _, id := range s.free {
		if _, live := s.refs[id]; live {
			t.Fatalf("page %d is both free and referenced", id)
		}
	}
}

// TestCommitAllocsMatchNewPagesExactly: with an empty free list, every
// new page is a fresh allocation, so each commit's NewPages must equal
// the pager's Allocs delta exactly.
func TestCommitAllocsMatchNewPagesExactly(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, nil)
	defer s.Close()

	parent := ""
	for round := 0; round < 6; round++ {
		d := buildDB(t, map[string]int{"Land": 10 + round, "Owner": 5}, "Land",
			fmt.Sprintf(`tuple id="x%04d" | x >= %d, x <= %d, y >= 0, y <= 5`, round, 90+round, 93+round))
		before := s.Stats().Pager.Allocs
		snap, err := s.Commit(d, parent, "prop")
		if err != nil {
			t.Fatal(err)
		}
		delta := s.Stats().Pager.Allocs - before
		if delta != uint64(snap.NewPages) {
			t.Fatalf("round %d: allocs delta %d != NewPages %d", round, delta, snap.NewPages)
		}
		if snap.NewPages+snap.SharedPages != snap.Pages {
			t.Fatalf("round %d: share accounting broken: %+v", round, snap)
		}
		parent = snap.ID
		checkInvariants(t, s)

		// The same database again, and a materialisation of it: both carry
		// their stored forms, nothing is encoded, and every page is found
		// in the store — by the same lookup and comparison, so the counts
		// are a first commit's.
		mat, err := s.Materialize(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, again := range []*db.Database{d, mat} {
			s0 := s.Stats()
			re, err := s.Commit(again, parent, "prop")
			if err != nil {
				t.Fatal(err)
			}
			s1 := s.Stats()
			if re.NewPages != 0 || re.Pages != snap.Pages || s1.Pager.Allocs != s0.Pager.Allocs ||
				s1.PagesShared-s0.PagesShared != int64(snap.Pages) {
				t.Fatalf("round %d: re-commit wrote %d of %d pages (first commit: %d pages), allocated %d",
					round, re.NewPages, re.Pages, snap.Pages, s1.Pager.Allocs-s0.Pager.Allocs)
			}
			if s1.RelationsEncoded != s0.RelationsEncoded || s1.RelationsReused-s0.RelationsReused != 2 {
				t.Fatalf("round %d: re-commit encoded %d relations and reused %d forms, want 0 and 2", round,
					s1.RelationsEncoded-s0.RelationsEncoded, s1.RelationsReused-s0.RelationsReused)
			}
			checkInvariants(t, s)
			if err := s.Release(re.ID); err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, s)
		}
	}
}

// TestReleaseFreesAllAndOnlyUnreachable: releasing a snapshot frees
// exactly the pages no other snapshot references.
func TestReleaseFreesAllAndOnlyUnreachable(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, nil)
	defer s.Close()

	base := buildDB(t, map[string]int{"Land": 25}, "")
	b, err := s.Commit(base, "", "prop")
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.Fork(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	derived := buildDB(t, map[string]int{"Land": 25}, "Land",
		`tuple id="zzzz" | x >= 99, x <= 102, y >= 0, y <= 5`)
	d1, err := s.Commit(derived, f.ID, "prop")
	if err != nil {
		t.Fatal(err)
	}

	pages := func(id string) map[storage.PageID]bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return distinctPages(s.snaps[id])
	}
	basePages, derivedPages := pages(b.ID), pages(d1.ID)

	// The fork shares every base page, so releasing the base frees none.
	free0 := s.Stats().PagesFree
	if err := s.Release(b.ID); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().PagesFree; got != free0 {
		t.Fatalf("releasing a fully-forked snapshot freed %d pages", got-free0)
	}
	checkInvariants(t, s)

	// Releasing the fork must free exactly base pages not shared with the
	// derived commit.
	wantFreed := 0
	for id := range basePages {
		if !derivedPages[id] {
			wantFreed++
		}
	}
	if err := s.Release(f.ID); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().PagesFree - free0; got != wantFreed {
		t.Fatalf("releasing the fork freed %d pages, want %d", got, wantFreed)
	}
	checkInvariants(t, s)

	// The survivor still materializes (its shared pages were retained).
	if _, err := s.Materialize(d1.ID); err != nil {
		t.Fatalf("survivor corrupt after releases: %v", err)
	}
}

// TestRandomizedChainKeepsInvariants drives a seeded random sequence of
// commit/fork/release against the store and checks every accounting
// invariant after each step, plus materialization of every survivor at
// the end — both before and after a reopen.
func TestRandomizedChainKeepsInvariants(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, nil)

	rng := rand.New(rand.NewSource(42))
	type liveSnap struct {
		id   string
		text string
		d    *db.Database // what was committed: it carries its stored forms
	}
	var live []liveSnap
	version := 0

	makeDB := func() *db.Database {
		version++
		return buildDB(t, map[string]int{"Land": 10 + version%7, "Owner": 6}, "Owner",
			fmt.Sprintf(`tuple id="v%04d" | x >= %d, x <= %d, y >= 0, y <= 5`, version, version, version+3))
	}

	for step := 0; step < 40; step++ {
		op := rng.Intn(3)
		switch {
		case op == 0 || len(live) == 0: // commit: a new state, a live one again, or a live one as materialised
			d := makeDB()
			parent := ""
			if len(live) > 0 {
				src := live[rng.Intn(len(live))]
				parent = src.id
				switch rng.Intn(3) {
				case 1:
					d = src.d
				case 2:
					var err error
					if d, err = s.Materialize(src.id); err != nil {
						t.Fatalf("step %d materialize: %v", step, err)
					}
				}
			}
			snap, err := s.Commit(d, parent, "chain")
			if err != nil {
				t.Fatalf("step %d commit: %v", step, err)
			}
			live = append(live, liveSnap{snap.ID, saveText(t, d), d})
		case op == 1: // fork
			src := live[rng.Intn(len(live))]
			snap, err := s.Fork(src.id)
			if err != nil {
				t.Fatalf("step %d fork: %v", step, err)
			}
			if snap.NewPages != 0 {
				t.Fatalf("step %d: fork wrote %d pages", step, snap.NewPages)
			}
			live = append(live, liveSnap{snap.ID, src.text, src.d})
		default: // release
			i := rng.Intn(len(live))
			if err := s.Release(live[i].id); err != nil {
				t.Fatalf("step %d release: %v", step, err)
			}
			live = append(live[:i], live[i+1:]...)
		}
		checkInvariants(t, s)
	}

	verify := func(s *Store, when string) {
		for _, ls := range live {
			got, err := s.Materialize(ls.id)
			if err != nil {
				t.Fatalf("%s: materialize %s: %v", when, ls.id, err)
			}
			if saveText(t, got) != ls.text {
				t.Fatalf("%s: snapshot %s drifted", when, ls.id)
			}
		}
	}
	verify(s, "before reopen")
	if st := s.Stats(); st.RelationsReused == 0 || st.RelationsEncoded == 0 || st.RelationsShared == 0 {
		t.Fatalf("the chain never took one of the paths: %+v", st)
	}
	forget(s)
	verify(s, "made to forget")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, nil)
	defer s2.Close()
	if got := s2.Stats().Snapshots; got != len(live) {
		t.Fatalf("reopen lost snapshots: %d vs %d", got, len(live))
	}
	// Refcounts and the free list are derived state: replay must rebuild
	// the same live/free partition of the file.
	s2.mu.Lock()
	liveN, freeN := len(s2.refs), len(s2.free)
	s2.mu.Unlock()
	st := s.Stats()
	if liveN != st.PagesLive {
		t.Fatalf("replayed refcounts track %d pages, pre-close store had %d", liveN, st.PagesLive)
	}
	if freeN < st.PagesFree {
		// Replay may reclaim more (orphaned allocations), never less.
		t.Fatalf("replay lost free slots: %d vs %d", freeN, st.PagesFree)
	}
	verify(s2, "after reopen")
}
