package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"weak"

	"cdb/internal/datagen"
	"cdb/internal/db"
	"cdb/internal/relation"
	"cdb/internal/storage"
)

// testPageSize keeps test databases multi-page without being huge.
const testPageSize = 256

// buildDB loads a deterministic text database: relations maps name to
// tuple count; extra lines (full "tuple ..." lines) are appended to the
// named relation.
func buildDB(t *testing.T, rels map[string]int, extraRel string, extra ...string) *db.Database {
	t.Helper()
	names := make([]string, 0, len(rels))
	for name := range rels {
		names = append(names, name)
	}
	// Deterministic relation order regardless of map iteration.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "relation %s\n", name)
		b.WriteString("schema id string relational, x rational constraint, y rational constraint\n")
		for i := 0; i < rels[name]; i++ {
			fmt.Fprintf(&b, "tuple id=%q | x >= %d, x <= %d, y >= 0, y <= 5\n", fmt.Sprintf("t%04d", i), i, i+3)
		}
		if name == extraRel {
			for _, line := range extra {
				b.WriteString(line + "\n")
			}
		}
		b.WriteString("end\n\n")
	}
	d, err := db.Load(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("buildDB: %v", err)
	}
	return d
}

// saveText renders a database with db.Save (the byte-identity oracle).
func saveText(t testing.TB, d *db.Database) string {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func openStore(t *testing.T, dir string, fault *Fault) *Store {
	t.Helper()
	s, err := Open(dir, Options{PageSize: testPageSize, Fault: fault})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestCommitMaterializeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, nil)
	defer s.Close()

	d := buildDB(t, map[string]int{"Land": 20, "Owner": 10}, "")
	snap, err := s.Commit(d, "", "base")
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// A first commit writes every distinct page; refs beyond NewPages can
	// only come from intra-commit dedup (identical chunks).
	if snap.Pages == 0 || snap.NewPages == 0 || snap.NewPages+snap.SharedPages != snap.Pages {
		t.Fatalf("share accounting inconsistent: %+v", snap)
	}
	if snap.Tuples != d.TupleCount() {
		t.Fatalf("tuples = %d, want %d", snap.Tuples, d.TupleCount())
	}
	got, err := s.Materialize(snap.ID)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if saveText(t, got) != saveText(t, d) {
		t.Fatalf("materialized database differs from committed one")
	}
}

func TestReopenSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, nil)
	d := buildDB(t, map[string]int{"Land": 15}, "")
	snap, err := s.Commit(d, "", "base")
	if err != nil {
		t.Fatal(err)
	}
	want := saveText(t, d)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, nil)
	defer s2.Close()
	list := s2.List()
	if len(list) != 1 || list[0].ID != snap.ID {
		t.Fatalf("reopened store lists %+v, want [%s]", list, snap.ID)
	}
	if list[0].NewPages != snap.NewPages || list[0].Pages != snap.Pages {
		t.Fatalf("share accounting lost across restart: %+v vs %+v", list[0], snap)
	}
	got, err := s2.Materialize(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if saveText(t, got) != want {
		t.Fatalf("reopened materialization differs")
	}
}

func TestForkIsSharedAndByteIdenticalToFullLoad(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, nil)
	defer s.Close()

	d := buildDB(t, map[string]int{"Land": 25}, "")
	base, err := s.Commit(d, "", "base")
	if err != nil {
		t.Fatal(err)
	}
	w0 := s.Stats().PagesWritten
	fork, err := s.Fork(base.ID)
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if fork.NewPages != 0 || fork.SharedPages != base.Pages {
		t.Fatalf("fork should share everything: %+v", fork)
	}
	if s.Stats().PagesWritten != w0 {
		t.Fatalf("fork wrote pages")
	}
	if fork.Parent != base.ID {
		t.Fatalf("fork parent = %q, want %q", fork.Parent, base.ID)
	}

	// A query on the materialized fork must be byte-identical to the
	// same query on a full Save/Load copy of the same state.
	forkDB, err := s.Materialize(fork.ID)
	if err != nil {
		t.Fatal(err)
	}
	full, err := db.Load(strings.NewReader(saveText(t, d)))
	if err != nil {
		t.Fatal(err)
	}
	const q = "R = select x >= 5, x <= 12 from Land"
	a, err := forkDB.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := full.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	as, bs := a.Sorted(), b.Sorted()
	if len(as) != len(bs) {
		t.Fatalf("fork query: %d tuples, full copy: %d", len(as), len(bs))
	}
	for i := range as {
		if as[i].String() != bs[i].String() {
			t.Fatalf("tuple %d differs:\nfork: %s\nfull: %s", i, as[i], bs[i])
		}
	}
}

func TestDerivedCommitSharesUnchangedPages(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, nil)
	defer s.Close()

	base := buildDB(t, map[string]int{"Land": 30, "Owner": 30}, "")
	b, err := s.Commit(base, "", "base")
	if err != nil {
		t.Fatal(err)
	}
	// Mutate Owner only (a tuple that sorts last, so Owner's prefix pages
	// keep their content); Land must be fully shared.
	derived := buildDB(t, map[string]int{"Land": 30, "Owner": 30}, "Owner",
		`tuple id="zzzz" | x >= 100, x <= 103, y >= 0, y <= 5`)
	dsnap, err := s.Commit(derived, b.ID, "base")
	if err != nil {
		t.Fatal(err)
	}
	if dsnap.SharedPages == 0 {
		t.Fatalf("derived commit shared nothing: %+v", dsnap)
	}
	if dsnap.NewPages >= dsnap.Pages/2 {
		t.Fatalf("derived commit rewrote too much: %+v", dsnap)
	}
	// Land's page run must be identical between the two manifests.
	s.mu.Lock()
	m0, m1 := s.snaps[b.ID], s.snaps[dsnap.ID]
	s.mu.Unlock()
	landPages := func(m *Manifest) []PageRef {
		for _, rel := range m.Relations {
			if rel.Name == "Land" {
				return rel.Pages
			}
		}
		return nil
	}
	p0, p1 := landPages(m0), landPages(m1)
	if len(p0) == 0 || len(p0) != len(p1) {
		t.Fatalf("Land page runs differ in length: %d vs %d", len(p0), len(p1))
	}
	for i := range p0 {
		if p0[i] != p1[i] {
			t.Fatalf("Land page %d not shared: %+v vs %+v", i, p0[i], p1[i])
		}
	}
	// And the derived snapshot materializes to the derived state.
	got, err := s.Materialize(dsnap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if saveText(t, got) != saveText(t, derived) {
		t.Fatalf("derived materialization differs")
	}
}

func TestReleaseUnknownAndDoubleRelease(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, nil)
	defer s.Close()
	if err := s.Release("nope"); err == nil {
		t.Fatal("release of unknown snapshot succeeded")
	}
	d := buildDB(t, map[string]int{"Land": 5}, "")
	snap, err := s.Commit(d, "", "base")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(snap.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(snap.ID); err == nil {
		t.Fatal("double release succeeded")
	}
	if _, err := s.Materialize(snap.ID); err == nil {
		t.Fatal("materialize of released snapshot succeeded")
	}
}

func TestEmptyDatabaseCommits(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, nil)
	defer s.Close()
	snap, err := s.Commit(db.New(), "", "empty")
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Materialize(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.TupleCount() != 0 || len(got.Names()) != 0 {
		t.Fatalf("empty snapshot materialized non-empty")
	}
}

func TestFreedPagesAreReused(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, nil)
	defer s.Close()

	d1 := buildDB(t, map[string]int{"Land": 20}, "")
	s1, err := s.Commit(d1, "", "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(s1.ID); err != nil {
		t.Fatal(err)
	}
	freed := s.Stats().PagesFree
	if freed == 0 {
		t.Fatal("release freed nothing")
	}
	allocs0 := s.Stats().Pager.Allocs
	// A different database: its pages must recycle the freed slots
	// before the file grows.
	d2 := buildDB(t, map[string]int{"Parcel": 10}, "")
	s2, err := s.Commit(d2, "", "b")
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	reusedWanted := min(freed, s2.NewPages)
	if got := st.Pager.Allocs - allocs0; got != uint64(s2.NewPages-reusedWanted) {
		t.Fatalf("fresh allocations = %d, want %d (new %d, reusable %d)",
			got, s2.NewPages-reusedWanted, s2.NewPages, freed)
	}
	if _, err := s.Materialize(s2.ID); err != nil {
		t.Fatal(err)
	}
}

func TestWALFileGrowsUnderDir(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, nil)
	defer s.Close()
	d := buildDB(t, map[string]int{"Land": 3}, "")
	if _, err := s.Commit(d, "", "base"); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"pages.cdb", "wal.log"} {
		if _, err := filepath.Glob(filepath.Join(dir, f)); err != nil {
			t.Fatalf("%s missing: %v", f, err)
		}
	}
	st := s.Stats()
	if st.WALAppends == 0 || st.WALFlushes == 0 || st.WALBytes == 0 {
		t.Fatalf("wal counters flat: %+v", st)
	}
}

// TestMaterializeIsByteAndOrderIdentical: for every family of relation,
// what a snapshot materialises saves to the bytes the committed database
// saves to, and iterates in the committed Rows order — at a page size that
// splits records across pages and at the default — and it is the same
// database, tuple for tuple, flag for flag, whether the store shared what
// the commit remembered, was made to forget and decoded, or was reopened.
func TestMaterializeIsByteAndOrderIdentical(t *testing.T) {
	families := codecFamilies()
	d := db.New()
	for _, name := range sortedKeys(families) {
		if err := d.Put(name, families[name]); err != nil {
			t.Fatal(err)
		}
	}
	n := int64(len(d.Names()))
	for _, pageSize := range []int{64, testPageSize, 0} {
		dir := t.TempDir()
		s, err := Open(dir, Options{PageSize: pageSize})
		if err != nil {
			t.Fatal(err)
		}
		forget(s, d) // the last page size's forms are of no use here; say so in the counters
		snap, err := s.Commit(d, "", "families")
		if err != nil {
			t.Fatalf("page size %d: commit: %v", pageSize, err)
		}
		materialize := func(s *Store, how string, decoded, shared int64) *db.Database {
			t.Helper()
			s0 := s.Stats()
			got, err := s.Materialize(snap.ID)
			if err != nil {
				t.Fatalf("page size %d, %s: materialize: %v", pageSize, how, err)
			}
			s1 := s.Stats()
			if s1.RelationsDecoded-s0.RelationsDecoded != decoded || s1.RelationsShared-s0.RelationsShared != shared {
				t.Fatalf("page size %d, %s: decoded %d and shared %d relations, want %d and %d", pageSize, how,
					s1.RelationsDecoded-s0.RelationsDecoded, s1.RelationsShared-s0.RelationsShared, decoded, shared)
			}
			if saveText(t, got) != saveText(t, d) {
				t.Fatalf("page size %d, %s: materialised database saves differently", pageSize, how)
			}
			for _, name := range d.Names() {
				want, _ := d.Get(name)
				have, _ := got.Get(name)
				if !have.Schema().Equal(want.Schema()) || fmt.Sprint(have.Schema().Names()) != fmt.Sprint(want.Schema().Names()) {
					t.Fatalf("page size %d, %s: %s: schema %s, want %s", pageSize, how, name, have.Schema(), want.Schema())
				}
				requireSame(t, want, have)
				requireCanonical(t, have)
			}
			return got
		}
		shared := materialize(s, "shared", 0, n)
		forget(s)
		decoded := materialize(s, "made to forget", n, 0)
		requireIdentical(t, shared, decoded)
		requireIdentical(t, decoded, materialize(s, "shared with the decoded one", 0, n))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(dir, Options{PageSize: pageSize}); err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, shared, materialize(s, "reopened", n, 0))
		s.Close()
	}
}

// forget makes the store forget every stored form its manifests point at,
// and the databases given the forms their relations carry: the next
// materialise decodes and the next commit of one of them encodes — the
// fallback of either fast path, forced. (Reopening the store and rebuilding
// the database is the other way to get there.)
func forget(s *Store, dbs ...*db.Database) {
	s.mu.Lock()
	for _, m := range s.snaps {
		for i := range m.Relations {
			m.Relations[i].form = weak.Pointer[storedForm]{}
		}
	}
	s.mu.Unlock()
	for _, d := range dbs {
		for _, name := range d.Names() {
			r, _ := d.Get(name)
			r.SetMemo(nil)
		}
	}
}

// requireIdentical asserts two materialisations of one snapshot cannot be
// told apart: the relations, their schemas, and the tuples in order — the
// bindings, the atoms, the canonical flag and the fingerprint of each —
// and the saved bytes.
func requireIdentical(t testing.TB, a, b *db.Database) {
	t.Helper()
	if fmt.Sprint(a.Names()) != fmt.Sprint(b.Names()) {
		t.Fatalf("relations %v and %v", a.Names(), b.Names())
	}
	for _, name := range a.Names() {
		ra, _ := a.Get(name)
		rb, _ := b.Get(name)
		if ra == rb {
			t.Fatalf("%s: two materialisations handed out one relation header", name)
		}
		if !ra.Schema().Equal(rb.Schema()) || fmt.Sprint(ra.Schema().Names()) != fmt.Sprint(rb.Schema().Names()) || ra.Len() != rb.Len() {
			t.Fatalf("%s: %s with %d tuples and %s with %d", name, ra.Schema(), ra.Len(), rb.Schema(), rb.Len())
		}
		for i, ta := range ra.Tuples() {
			tb := rb.Tuples()[i]
			ca, cb := ta.Constraint(), tb.Constraint()
			if !ta.SameRelationalPart(tb) || !ca.EqualCanonical(cb) || ca.Len() != cb.Len() ||
				ca.IsCanonical() != cb.IsCanonical() || ca.Fingerprint() != cb.Fingerprint() {
				t.Fatalf("%s: tuple %d is %s in one and %s in the other", name, i, ta, tb)
			}
		}
	}
	if saveText(t, a) != saveText(t, b) {
		t.Fatal("the two save to different bytes")
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestOldFormatRefused: a store whose log carries another format version
// (version 1 kept query-language text in its pages) is refused with
// ErrFormatVersion, and refusing it changes no byte of it.
func TestOldFormatRefused(t *testing.T) {
	dir := t.TempDir()
	old := append([]byte("CDBWAL1\n"), frame(walCommit, validManifestBytes(t))...)
	old = append(old, 0xde, 0xad) // a torn tail, which a log of this version would have cut
	path := filepath.Join(dir, "wal.log")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	pagesPath := filepath.Join(dir, "pages.cdb")
	pages := []byte("whatever version 1 kept here")
	if err := os.WriteFile(pagesPath, pages, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{PageSize: testPageSize})
	if !errors.Is(err, ErrFormatVersion) {
		t.Fatalf("Open over a version-1 log: err = %v, want ErrFormatVersion", err)
	}
	for file, before := range map[string][]byte{path: old, pagesPath: pages} {
		after, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("refusing the store rewrote %s: %d bytes, was %d", file, len(after), len(before))
		}
	}
	if _, err := Open(dir, Options{PageSize: testPageSize}); !errors.Is(err, ErrFormatVersion) {
		t.Fatalf("second Open: err = %v, want ErrFormatVersion", err)
	}
	// Not every unreadable log is an old one.
	if err := os.WriteFile(path, []byte("garbage!\nmore"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{PageSize: testPageSize}); err == nil || errors.Is(err, ErrFormatVersion) {
		t.Fatalf("Open over garbage: err = %v, want a plain not-a-log error", err)
	}
}

// churnBoxes is the relation that dominates the benchmark's snapshot-churn
// database — 1536 boxes there, six in seven with an id — at n boxes.
func churnBoxes(n int) *relation.Relation {
	p := datagen.Paper()
	p.SizeMin, p.Seed = 50, 41
	return canonical(datagen.BoxRelation(p, n, 0))
}

// TestMaterializeAllocs holds a materialisation that has to decode the
// churn relation (the store is made to forget before each) to 15
// allocations per tuple (9.7 measured: the bindings map, the string, and
// what Canon builds; the text pages cost 94).
func TestMaterializeAllocs(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d := db.New()
	boxes := churnBoxes(1536)
	if err := d.Put("Boxes", boxes); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Commit(d, "", "churn")
	if err != nil {
		t.Fatal(err)
	}
	perRun := testing.AllocsPerRun(5, func() {
		forget(s)
		if _, err := s.Materialize(snap.ID); err != nil {
			t.Fatal(err)
		}
	})
	if st := s.Stats(); st.RelationsShared != 0 || st.RelationsDecoded == 0 {
		t.Fatalf("the runs decoded %d relations and shared %d: not the decode path", st.RelationsDecoded, st.RelationsShared)
	}
	if perTuple := perRun / float64(boxes.Len()); perTuple > 15 {
		t.Fatalf("materialise allocates %.1f times per tuple, ceiling 15", perTuple)
	}
}

// TestMaterializeDecodesOutsideTheLock: once the pages are read and
// verified (readRelations, the locked half), nothing a materialise does
// depends on the store — a fork and a release of another snapshot go
// through, and so does the release of the very snapshot being materialised
// and a commit that recycles its pages — whether the unlocked half
// (storedRelation.relation) has the stream to decode or a remembered
// relation to copy. Remembering what was decoded for a snapshot that is
// gone is a no-op.
func TestMaterializeDecodesOutsideTheLock(t *testing.T) {
	for _, forced := range []bool{true, false} {
		s := openStore(t, t.TempDir(), nil)
		d := buildDB(t, map[string]int{"Land": 40, "Owner": 10}, "")
		want := saveText(t, d)
		snap, err := s.Commit(d, "", "a")
		if err != nil {
			t.Fatal(err)
		}
		other, err := s.Commit(buildDB(t, map[string]int{"Parcel": 30}, ""), "", "b")
		if err != nil {
			t.Fatal(err)
		}
		if forced {
			forget(s)
		}

		rels, err := s.readRelations(snap.ID) // the locked half
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range rels {
			if decodes := rel.form.rel == nil; decodes != forced || decodes != (rel.stream != nil) {
				t.Fatalf("forced=%v: %s comes back with a relation: %v, with a stream: %v", forced, rel.name, !decodes, rel.stream != nil)
			}
		}
		fork, err := s.Fork(other.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Release(fork.ID); err != nil {
			t.Fatal(err)
		}
		if err := s.Release(snap.ID); err != nil {
			t.Fatal(err)
		}
		recycled, err := s.Commit(buildDB(t, map[string]int{"Lot": 45}, ""), "", "c")
		if err != nil {
			t.Fatal(err)
		}
		if s.Stats().PagesReused == 0 {
			t.Fatalf("the commit after the release recycled no page: %+v", recycled)
		}

		got := db.New() // the unlocked half
		for i := range rels {
			r, err := rels[i].relation()
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Put(rels[i].name, r); err != nil {
				t.Fatal(err)
			}
		}
		s.remember(snap.ID, rels)
		if saveText(t, got) != want {
			t.Fatalf("forced=%v: pages read before the release came to something else after it", forced)
		}
		runtime.KeepAlive(d) // what the store remembered of d, it remembered for as long as d lived
		s.Close()
	}
}

// TestMaterializeBesideWriters runs materialises of one snapshot against
// commits, forks and releases of others, and sessions' life cycles over one
// shared base — each commits the base's relations, whose stored forms every
// one of them reuses and the first of them attaches, plus a result of its
// own, forks, materialises the fork and releases both — against each other
// (go test -race is the assertion, with each result's bytes).
func TestMaterializeBesideWriters(t *testing.T) {
	s := openStore(t, t.TempDir(), nil)
	defer s.Close()
	d := buildDB(t, map[string]int{"Land": 60, "Owner": 20}, "")
	want := saveText(t, d)
	snap, err := s.Commit(d, "", "read")
	if err != nil {
		t.Fatal(err)
	}
	// One base no session has committed yet, and each session's states:
	// the base's relations and a result of its own.
	base := buildDB(t, map[string]int{"Base": 50, "Names": 12}, "")
	var states [3][6]*db.Database
	for g := range states {
		for i := range states[g] {
			state := buildDB(t, map[string]int{"Q": 3 + g + i}, "")
			for _, name := range base.Names() {
				r, _ := base.Get(name)
				if err := state.Put(name, r); err != nil {
					t.Fatal(err)
				}
			}
			states[g][i] = state
		}
	}
	var wg sync.WaitGroup
	for g := range states {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				got, err := s.Materialize(snap.ID)
				if err != nil {
					t.Error(err)
					return
				}
				var buf bytes.Buffer
				if err := got.Save(&buf); err != nil || buf.String() != want {
					t.Errorf("materialised state drifted beside writers (save: %v)", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for _, state := range states[g] {
				var want, got bytes.Buffer
				if err := state.Save(&want); err != nil {
					t.Error(err)
					return
				}
				c, err := s.Commit(state, "", "session")
				if err != nil {
					t.Error(err)
					return
				}
				f, err := s.Fork(c.ID)
				if err != nil {
					t.Error(err)
					return
				}
				m, err := s.Materialize(f.ID)
				if err != nil {
					t.Error(err)
					return
				}
				if err := m.Save(&got); err != nil || got.String() != want.String() {
					t.Errorf("a session's fork materialised to another state (save: %v)", err)
					return
				}
				for _, id := range []string{f.ID, c.ID} {
					if err := s.Release(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		w, err := s.Commit(buildDB(t, map[string]int{"Parcel": 10 + i}, ""), "", "write")
		if err != nil {
			t.Fatal(err)
		}
		f, err := s.Fork(w.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{w.ID, f.ID} {
			if err := s.Release(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
	if st := s.Stats(); st.RelationsReused == 0 || st.RelationsShared == 0 {
		t.Fatalf("no commit reused a stored form (%d) or no materialise shared one (%d)", st.RelationsReused, st.RelationsShared)
	}
}

// TestPagesAreFramedWhole: every page on disk is exactly its frame — the
// length header, the payload and zeros to the page's end — whatever the
// store's one page buffer held before. Full pages and short last pages
// alternate through that buffer, relations of several sizes follow each
// other, and a dedup comparison reads a full page into it between writes.
func TestPagesAreFramedWhole(t *testing.T) {
	s, err := Open(t.TempDir(), Options{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := mustCommit(t, s, buildDB(t, map[string]int{"Land": 40}, ""), "")
	next := mustCommit(t, s, buildDB(t, map[string]int{"Land": 40, "Parcel": 7, "Tiny": 1}, ""), base.ID)
	buf := make([]byte, 256)
	for _, id := range []string{base.ID, next.ID} {
		for _, rel := range s.snaps[id].Relations {
			for _, ref := range rel.Pages {
				if err := s.pager.Read(storage.PageID(ref.Page), buf); err != nil {
					t.Fatal(err)
				}
				payload, err := decodePage(buf)
				if err != nil {
					t.Fatal(err)
				}
				if hashPayload(payload) != ref.Hash {
					t.Fatalf("%s page %d: hash mismatch", rel.Name, ref.Page)
				}
				want := make([]byte, 256)
				if err := encodePage(want, payload); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("%s page %d (%d-byte payload) is not its zero-padded frame", rel.Name, ref.Page, len(payload))
				}
			}
		}
	}
}
