package snapshot

import (
	"runtime"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/datagen"
	"cdb/internal/db"
	"cdb/internal/hurricane"
	"cdb/internal/rational"
	"cdb/internal/relation"
)

// The life of a stored form (form.go): who may see it, how long it lives,
// and what it is allowed to save.

// statsDelta runs f and returns how far the store's four form counters
// moved: relations encoded and reused by commits, decoded and shared by
// materialises.
func statsDelta(s *Store, f func()) (encoded, reused, decoded, shared int64) {
	s0 := s.Stats()
	f()
	s1 := s.Stats()
	return s1.RelationsEncoded - s0.RelationsEncoded, s1.RelationsReused - s0.RelationsReused,
		s1.RelationsDecoded - s0.RelationsDecoded, s1.RelationsShared - s0.RelationsShared
}

func mustCommit(t testing.TB, s *Store, d *db.Database, parent string) Snapshot {
	t.Helper()
	snap, err := s.Commit(d, parent, "form")
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func mustMaterialize(t testing.TB, s *Store, id string) *db.Database {
	t.Helper()
	d, err := s.MaterializeCtx(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func lastBox(id string, x int64) relation.Tuple {
	return relation.NewTuple(map[string]relation.Value{"id": relation.Str(id)}, constraint.And(
		constraint.GeConst("x", rational.FromInt(x)), constraint.LeConst("x", rational.FromInt(x+3)),
		constraint.GeConst("y", rational.Zero), constraint.LeConst("y", rational.FromInt(5)))).Canon()
}

// TestAddAfterCommitIsNotSeenAndIsCommitted: a tuple added to a committed
// relation shows in no database materialised before, makes the next commit
// encode that relation again (and that one only) and write a page, and is
// in what that commit materialises. The same the other way round: a tuple
// added to a materialised relation shows neither in the committed database
// nor in the next materialisation.
func TestAddAfterCommitIsNotSeenAndIsCommitted(t *testing.T) {
	s := openStore(t, t.TempDir(), nil)
	defer s.Close()
	d := buildDB(t, map[string]int{"Land": 30, "Owner": 12}, "")
	snap1 := mustCommit(t, s, d, "")
	before := saveText(t, d)
	d2 := mustMaterialize(t, s, snap1.ID)

	land, _ := d.Get("Land")
	land.MustAdd(lastBox("zzzz", 100))
	if land.Memo() != nil {
		t.Fatal("Add left the stored form on the relation")
	}
	if saveText(t, d2) != before {
		t.Fatal("a tuple added to the committed relation shows in a database materialised before")
	}
	var snap2 Snapshot
	encoded, reused, _, _ := statsDelta(s, func() { snap2 = mustCommit(t, s, d, snap1.ID) })
	if encoded != 1 || reused != 1 {
		t.Fatalf("the commit after the Add encoded %d relations and reused %d forms, want 1 and 1", encoded, reused)
	}
	if snap2.NewPages == 0 || snap2.SharedPages == 0 {
		t.Fatalf("the commit after the Add: %+v, want a new tail page beside shared ones", snap2)
	}
	if got := saveText(t, mustMaterialize(t, s, snap2.ID)); got != saveText(t, d) || got == before {
		t.Fatal("the second snapshot does not hold the added tuple")
	}
	if saveText(t, mustMaterialize(t, s, snap1.ID)) != before {
		t.Fatal("the first snapshot changed")
	}

	owner2, _ := d2.Get("Owner")
	owner2.MustAdd(lastBox("zzzz", 7))
	if saveText(t, mustMaterialize(t, s, snap1.ID)) != before || saveText(t, mustMaterialize(t, s, snap2.ID)) != saveText(t, d) {
		t.Fatal("a tuple added to a materialised relation shows in a later materialisation")
	}
	if owner, _ := d.Get("Owner"); owner.Len() != 12 {
		t.Fatal("a tuple added to a materialised relation shows in the committed one")
	}
	// The edited copy commits as what it is.
	snap3 := mustCommit(t, s, d2, snap1.ID)
	if saveText(t, mustMaterialize(t, s, snap3.ID)) != saveText(t, d2) {
		t.Fatal("the edited materialisation did not commit as edited")
	}
}

// TestStoreHoldsNoRelation: once nothing outside the store holds a
// committed database or a materialisation of it, the store decodes — it
// kept neither; while something does, it shares.
func TestStoreHoldsNoRelation(t *testing.T) {
	s := openStore(t, t.TempDir(), nil)
	defer s.Close()
	snapID := func() string { // d is dead when this returns
		d := buildDB(t, map[string]int{"Land": 30, "Owner": 12}, "")
		return mustCommit(t, s, d, "").ID
	}()
	materialize := func() (got *db.Database, decoded, shared int64) {
		_, _, decoded, shared = statsDelta(s, func() { got = mustMaterialize(t, s, snapID) })
		return got, decoded, shared
	}
	for round := 0; round < 2; round++ {
		runtime.GC()
		runtime.GC()
		held, decoded, shared := materialize()
		if decoded != 2 || shared != 0 {
			t.Fatalf("round %d: with every reference dropped the store decoded %d relations and shared %d: it pins something", round, decoded, shared)
		}
		runtime.GC()
		if _, decoded, shared := materialize(); decoded != 0 || shared != 2 {
			t.Fatalf("round %d: beside a live materialisation the store decoded %d relations and shared %d", round, decoded, shared)
		}
		runtime.KeepAlive(held)
	}
}

// TestNonCanonicalIsNeverShared: a relation built by hand, its tuples not
// flagged canonical (the -demo database), gets a stored form without a
// relation — the committed tuples are not what decode would build — so the
// first materialise decodes, canonicalises and round-trips it; what that
// decoded may then be shared.
func TestNonCanonicalIsNeverShared(t *testing.T) {
	s := openStore(t, t.TempDir(), nil)
	defer s.Close()
	d := hurricane.Build()
	n := int64(len(d.Names()))
	handBuilt := 0
	for _, name := range d.Names() {
		r, _ := d.Get(name)
		for _, tp := range r.Tuples() {
			if !tp.Constraint().IsCanonical() {
				handBuilt++
			}
		}
	}
	if handBuilt == 0 {
		t.Fatal("the demo database is canonical throughout: not the input this test needs")
	}
	snap := mustCommit(t, s, d, "")
	withRelation := int64(0)
	for _, name := range d.Names() {
		r, _ := d.Get(name)
		if r.Memo().(*storedForm).rel != nil {
			withRelation++
			requireCanonical(t, r)
		}
	}
	var got *db.Database
	_, _, decoded, shared := statsDelta(s, func() { got = mustMaterialize(t, s, snap.ID) })
	if shared != withRelation || decoded != n-withRelation || decoded == 0 {
		t.Fatalf("decoded %d relations and shared %d; %d of %d were committed canonical", decoded, shared, withRelation, n)
	}
	want := db.New()
	for _, name := range d.Names() {
		r, _ := d.Get(name)
		want.Put(name, canonical(r))
		have, _ := got.Get(name)
		requireCanonical(t, have)
	}
	if saveText(t, got) != saveText(t, want) {
		t.Fatal("the hand-built database did not round-trip")
	}
	var again *db.Database
	if _, _, decoded, shared = statsDelta(s, func() { again = mustMaterialize(t, s, snap.ID) }); decoded != 0 || shared != n {
		t.Fatalf("beside the first materialisation the second decoded %d relations and shared %d", decoded, shared)
	}
	requireIdentical(t, got, again)
	// A commit of the hand-built database reuses its pages all the same.
	if encoded, reused, _, _ := statsDelta(s, func() { mustCommit(t, s, d, snap.ID) }); encoded != 0 || reused != n {
		t.Fatalf("re-commit encoded %d relations and reused %d forms", encoded, reused)
	}
}

// TestFormIsPerPageSize: a stored form cut for one page size is of no use
// to a store with another; each commit into the other store encodes, and
// both stores materialise the same database.
func TestFormIsPerPageSize(t *testing.T) {
	small := openStore(t, t.TempDir(), nil)
	defer small.Close()
	large, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer large.Close()
	d := buildDB(t, map[string]int{"Land": 30, "Owner": 12}, "")
	var ids [2][]string
	for round := 0; round < 2; round++ {
		for i, s := range []*Store{small, large} {
			var snap Snapshot
			if encoded, reused, _, _ := statsDelta(s, func() { snap = mustCommit(t, s, d, "") }); encoded != 2 || reused != 0 {
				t.Fatalf("round %d, %d-byte pages: encoded %d relations, reused %d forms cut for another page size",
					round, s.Stats().PageSize, encoded, reused)
			}
			ids[i] = append(ids[i], snap.ID)
		}
	}
	if encoded, reused, _, _ := statsDelta(large, func() { mustCommit(t, large, d, "") }); encoded != 0 || reused != 2 {
		t.Fatalf("the store that committed last encoded %d relations and reused %d forms", encoded, reused)
	}
	a, b := mustMaterialize(t, small, ids[0][1]), mustMaterialize(t, large, ids[1][0])
	requireIdentical(t, a, b)
	// A database materialised from one store commits into the other.
	snap := mustCommit(t, large, a, "")
	requireIdentical(t, a, mustMaterialize(t, large, snap.ID))
	if sp, lp := small.Stats().PageSize, large.Stats().PageSize; sp == lp {
		t.Fatalf("both stores have %d-byte pages", sp)
	}
}

// churnDB is the benchmark's snapshot-churn database with the given number
// of boxes (1536 there), as a session holds it.
func churnDB(t testing.TB, boxes int) *db.Database {
	t.Helper()
	land, owners, track := datagen.HurricaneRelations(5)
	d := db.New()
	for _, rel := range []struct {
		name string
		r    *relation.Relation
	}{{"Land", canonical(land)}, {"Landownership", canonical(owners)}, {"Hurricane", canonical(track)}, {"Boxes", churnBoxes(boxes)}} {
		if err := d.Put(rel.name, rel.r); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestWarmRecommitAllocs puts a ceiling on what one snapshot-churn operation
// may allocate in the store once the base has been committed: a session's
// state — the shared base and two three-tuple results nobody has committed
// before — committed, forked, the fork materialised, both released. Per
// operation that is the pages read to compare and to verify, the pages
// written, the manifests and their log records, and the two small results
// encoded: it grows with the number of pages, a few dozen here, and not with
// the number of tuples. An encode or a decode of the base — some ten
// allocations per tuple — cannot come back under this ceiling, and the
// counters say outright that neither ran.
func TestWarmRecommitAllocs(t *testing.T) {
	const (
		ceiling = 450 // allocations per operation; 254 at 512 boxes and 342 at 1536 when set
		runs    = 10
	)
	for _, boxes := range []int{512, 1536} {
		s, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		base := churnDB(t, boxes)
		// One pair of results per operation, built where building is not counted.
		var results []*db.Database
		for i := 0; i < runs+2; i++ { // the one that commits the base, and AllocsPerRun's own warm-up
			results = append(results, buildDB(t, map[string]int{"Q1": 3, "Q2": 3}, ""))
		}
		op := func() {
			state := db.New()
			for _, d := range []*db.Database{base, results[0]} {
				for _, name := range d.Names() {
					r, _ := d.Get(name)
					state.Put(name, r)
				}
			}
			results = results[1:]
			snap := mustCommit(t, s, state, "")
			fork, err := s.Fork(snap.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got := mustMaterialize(t, s, fork.ID); got.TupleCount() != state.TupleCount() {
				t.Fatalf("materialised %d tuples of %d", got.TupleCount(), state.TupleCount())
			}
			for _, id := range []string{fork.ID, snap.ID} {
				if err := s.Release(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		op()
		var allocs float64
		encoded, reused, decoded, shared := statsDelta(s, func() { allocs = testing.AllocsPerRun(runs, op) })
		if n := int64(runs + 1); encoded != 2*n || reused != 4*n || decoded != 0 || shared != 6*n {
			t.Fatalf("%d boxes: %d operations encoded %d relations (want the results: %d) and reused %d forms, decoded %d and shared %d",
				boxes, n, encoded, 2*n, reused, decoded, shared)
		}
		if allocs > ceiling {
			t.Errorf("%d boxes: a warm commit + fork + materialise + release allocates %.0f times, ceiling %d", boxes, allocs, ceiling)
		}
		s.Close()
	}
}

// TestSharedRecommitAllocs puts a ceiling on one commit + fork + materialise
// + release of a database whose every relation is shared: the store holds
// its pages under a base snapshot, and the relations carry their stored
// forms. So the commit writes nothing and compares every page, and the
// materialise decodes nothing and hash-checks every page. Those page reads
// go through the store's one page buffer: what is left per operation is the
// manifests, their log records and the fork's database, a number that does
// not grow with the pages read. A buffer per page read would. Small pages
// make the pages many.
func TestSharedRecommitAllocs(t *testing.T) {
	const (
		ceiling = 150 // allocations per operation; 86 at 59 pages when set, against 4 more per page with a buffer per read
		runs    = 20
	)
	s, err := Open(t.TempDir(), Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d := churnDB(t, 1536)
	base := mustCommit(t, s, d, "")
	op := func() {
		snap := mustCommit(t, s, d, base.ID)
		fork, err := s.Fork(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustMaterialize(t, s, fork.ID); got.TupleCount() != d.TupleCount() {
			t.Fatalf("materialised %d tuples of %d", got.TupleCount(), d.TupleCount())
		}
		for _, id := range []string{fork.ID, snap.ID} {
			if err := s.Release(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	st0 := s.Stats()
	allocs := testing.AllocsPerRun(runs, op)
	st := s.Stats()
	pages := int64(base.Pages)
	reads := int64(st.Pager.Reads - st0.Pager.Reads)
	if n := int64(runs + 1); st.PagesWritten != st0.PagesWritten || st.PagesShared-st0.PagesShared != n*pages ||
		reads != 2*n*pages || st.RelationsEncoded != st0.RelationsEncoded || st.RelationsDecoded != st0.RelationsDecoded {
		t.Fatalf("%d operations on %d pages: wrote %d, shared %d, read %d, encoded %d, decoded %d; want 0, %d, %d, 0, 0",
			n, pages, st.PagesWritten-st0.PagesWritten, st.PagesShared-st0.PagesShared, reads,
			st.RelationsEncoded-st0.RelationsEncoded, st.RelationsDecoded-st0.RelationsDecoded, n*pages, 2*n*pages)
	}
	t.Logf("%d pages: %.0f allocations per operation", pages, allocs)
	if allocs > ceiling {
		t.Errorf("a shared commit + fork + materialise + release of %d pages allocates %.0f times, ceiling %d", pages, allocs, ceiling)
	}
}
