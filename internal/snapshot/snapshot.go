// Package snapshot is the copy-on-write snapshot store: branchable,
// durable database states layered on the paged-storage substrate
// (package storage).
//
// A snapshot is a manifest of content-addressed page references over a
// shared page file. Committing a database encodes each relation as a
// deterministic stream of binary tuple records cut into pages at record
// boundaries (codec.go owns the layout; package db's text format is for
// import, export and goldens, never for pages), deduplicates every page
// against the store by content hash plus byte comparison, and writes only
// the pages no earlier snapshot already holds — so a derived state shares
// every unchanged page with its parent and the marginal cost of a commit
// is proportional to the *edit*, not the database. Fork copies a manifest
// and bumps refcounts: O(1) in data size, no page I/O at all. Release
// decrements refcounts and returns pages no live snapshot references to a
// free list for reuse.
//
// The same holds for CPU and allocation, for as long as a relation is in
// memory: its stored form (form.go) — the page payloads, their hashes, and
// the relation a materialise would decode from them — hangs off the
// relation itself, and a manifest entry points at it weakly. A commit of a
// relation that carries one skips ordering, encoding, chunking and hashing;
// a materialise whose entry still resolves skips decoding. Neither skips a
// check: every page of a materialise is read and verified against its
// hash, every page a commit shares is byte-compared first, and the write,
// fsync and WAL path below is the only one. A materialise never hands out
// the committed object, only what decode would build of it — same tuples,
// Rows order, a header of its own — so its result does not depend on who
// remembers what. The store holds no relation and no payload strongly:
// nothing to size, nothing to evict, and a snapshot nobody has in memory
// pins none.
//
// Durability is write-ahead logged: page content is fsynced to the page
// file first, then the page-put records and the manifest are appended to
// the WAL as one CRC-framed batch and fsynced. A snapshot exists exactly
// when its commit record is fully on disk — replay truncates torn tails
// and reclaims orphaned pages, so a crash at any byte of a commit
// reopens as either the old state or the new one, never a mix (the
// crash-consistency suite drives an injected fault over every write of
// the commit path and asserts exactly that).
package snapshot

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"weak"

	"cdb/internal/db"
	"cdb/internal/exec"
	"cdb/internal/storage"
)

// Options configure Open.
type Options struct {
	// PageSize sets the page size for a new store
	// (storage.DefaultPageSize when <= 0); existing stores keep theirs.
	PageSize int

	// Fault, when non-nil, arms fault injection on the commit path
	// (tests and the crash smoke only).
	Fault *Fault

	// EC, when non-nil, traces Open's WAL replay as a "wal.replay" span.
	EC *exec.Context
}

// Store is a copy-on-write snapshot store rooted at a directory:
//
//	<dir>/pages.cdb   the shared page file (storage.FilePager)
//	<dir>/wal.log     the write-ahead log (source of truth for metadata)
//
// All metadata — which snapshots exist, which pages they reference,
// refcounts, the free list — is reconstructed from the WAL on Open.
// A Store is safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	dir    string
	fp     *storage.FilePager
	pager  storage.Pager // fp, possibly fault-wrapped
	wal    *wal
	closed bool

	// page is the one page buffer every page read (the dedup comparison,
	// the hash-checked read) and every framed write goes through. Commit
	// and readRelations hold mu while they use it; a payload read into it
	// is valid until the next read or framing.
	page storage.Page

	index map[uint64][]storage.PageID // content hash -> candidate pages
	refs  map[storage.PageID]int      // live references per page
	free  []storage.PageID            // reclaimable slots, ascending
	snaps map[string]*Manifest
	order []string // live snapshot ids, commit order
	seq   int64

	// Lifetime counters (see Stats).
	commits, forks, releases               int64
	pagesWritten, pagesShared, pagesReused int64
	relsEncoded, relsReused                int64 // commit: stored forms made, stored forms the relation carried
	relsDecoded, relsShared                int64 // materialise: relations decoded, relations some database still held
}

// Snapshot is one snapshot's metadata.
type Snapshot struct {
	ID            string `json:"id"`
	Parent        string `json:"parent,omitempty"`
	DB            string `json:"db,omitempty"`
	CreatedUnixMS int64  `json:"created_unix_ms"`
	Tuples        int    `json:"tuples"`
	Pages         int    `json:"pages"`        // page references in the manifest
	NewPages      int    `json:"new_pages"`    // pages this commit wrote (0 for forks)
	SharedPages   int    `json:"shared_pages"` // references resolved by dedup
}

// Open opens (or creates) the store at dir and replays the WAL.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	// The log first: it names the store's format version, and a store of
	// another version is refused before its page file is even opened.
	w, recs, err := openWAL(filepath.Join(dir, "wal.log"), opts.Fault)
	if err != nil {
		return nil, err
	}
	fp, err := storage.OpenFilePager(filepath.Join(dir, "pages.cdb"), opts.PageSize)
	if err != nil {
		w.close()
		return nil, err
	}
	var pager storage.Pager = fp
	if opts.Fault != nil {
		pager = NewFaultPager(pager, opts.Fault)
	}
	s := &Store{
		dir:   dir,
		fp:    fp,
		pager: pager,
		wal:   w,
		page:  storage.Page{Data: make([]byte, fp.PageSize())},
		index: map[uint64][]storage.PageID{},
		refs:  map[storage.PageID]int{},
		snaps: map[string]*Manifest{},
	}
	sp := opts.EC.BeginSpan("wal.replay", dir)
	err = s.replay(recs)
	sp.Set("records", int64(len(recs)))
	sp.Set("snapshots", int64(len(s.snaps)))
	opts.EC.EndSpan(sp)
	if err != nil {
		s.wal.close()
		fp.Close()
		return nil, err
	}
	return s, nil
}

// replay rebuilds the store's metadata from the WAL records: page-put
// records name allocated slots, commit records add manifests to the
// live set, release records remove them. Afterwards refcounts and the
// dedup index are derived from the live manifests alone, and every
// allocated slot nothing references — orphans of torn commits included —
// goes on the free list.
func (s *Store) replay(recs []walRecord) error {
	allocated := map[storage.PageID]bool{}
	for _, rec := range recs {
		switch rec.typ {
		case walPagePut:
			_, page, err := decodePagePut(rec.payload)
			if err != nil {
				return err
			}
			allocated[storage.PageID(page)] = true
		case walCommit:
			m, err := decodeManifest(rec.payload)
			if err != nil {
				return err
			}
			if _, dup := s.snaps[m.ID]; dup {
				return fmt.Errorf("snapshot: wal replays snapshot %s twice", m.ID)
			}
			s.snaps[m.ID] = m
			s.order = append(s.order, m.ID)
			if seq := idSeq(m.ID); seq > s.seq {
				s.seq = seq
			}
		case walRelease:
			id := string(rec.payload)
			if _, ok := s.snaps[id]; !ok {
				return fmt.Errorf("snapshot: wal releases unknown snapshot %q", id)
			}
			delete(s.snaps, id)
			s.order = removeID(s.order, id)
		default:
			return fmt.Errorf("snapshot: unknown wal record type %q", rec.typ)
		}
	}
	high := highWater(s.pager)
	for _, m := range s.snaps {
		for _, rel := range m.Relations {
			for _, ref := range rel.Pages {
				id := storage.PageID(ref.Page)
				if id > high {
					return fmt.Errorf("snapshot: %s references page %d beyond the page file (%d pages)", m.ID, id, high)
				}
				if s.refs[id] == 0 {
					s.index[ref.Hash] = append(s.index[ref.Hash], id)
				}
				s.refs[id]++
			}
		}
	}
	// Anything allocated (by a put record or by the pager's high-water
	// mark, which also catches pages a crash allocated before logging)
	// that no live manifest references is reusable.
	for id := range allocated {
		if id > high {
			return fmt.Errorf("snapshot: wal names page %d beyond the page file (%d pages)", id, high)
		}
	}
	for id := storage.PageID(1); id <= high; id++ {
		if s.refs[id] == 0 {
			s.free = append(s.free, id)
		}
	}
	return nil
}

// highWater reads the pager's high-water mark through the optional
// interface (FilePager and MemPager both implement it).
func highWater(p storage.Pager) storage.PageID {
	if hw, ok := p.(interface{ HighWater() storage.PageID }); ok {
		return hw.HighWater()
	}
	return 0
}

func syncPager(p storage.Pager) error {
	if sy, ok := p.(interface{ Sync() error }); ok {
		return sy.Sync()
	}
	return nil
}

// Commit serializes d and makes it a durable snapshot. Parent is an
// optional lineage label (the snapshot or database this state derives
// from); name labels the database. Only pages no earlier snapshot holds
// are written; everything else is shared.
func (s *Store) Commit(d *db.Database, parent, name string) (Snapshot, error) {
	return s.CommitCtx(d, parent, name, nil)
}

// CommitCtx is Commit under an execution context: the serialize,
// dedup-and-write, and WAL phases run under a "snapshot.commit" span
// carrying page counters.
func (s *Store) CommitCtx(d *db.Database, parent, name string, ec *exec.Context) (Snapshot, error) {
	sp := ec.BeginSpan("snapshot.commit", name)
	defer ec.EndSpan(sp)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Snapshot{}, fmt.Errorf("snapshot: store is closed")
	}
	forms, encoded, err := encodePages(d, s.pager.PageSize())
	if err != nil {
		return Snapshot{}, err
	}
	s.relsEncoded += int64(encoded)
	s.relsReused += int64(len(forms) - encoded)

	// Phase 1: write the pages the store does not already hold. Fresh
	// slots come off the free list (lowest first, deterministic) before
	// the pager grows. A failure anywhere in here aborts the commit and
	// returns the acquired slots to the free list: they hold unreferenced
	// garbage, which is exactly what the free list is for.
	type stagedPage struct {
		hash    uint64
		page    storage.PageID
		payload []byte
	}
	var (
		staged   []stagedPage
		byHash   = map[uint64][]int{} // hash -> staged indices (intra-commit dedup)
		acquired []storage.PageID
		m        = &Manifest{Parent: parent, DB: name, Tuples: d.TupleCount()}
		shared   int
	)
	abort := func(err error) (Snapshot, error) {
		s.free = append(s.free, acquired...)
		sortPages(s.free)
		return Snapshot{}, err
	}
	names := d.Names()
	for i, form := range forms {
		rel := RelationPages{Name: names[i], Schema: form.attrs,
			Pages: make([]PageRef, 0, len(form.payloads)), form: weak.Make(form)}
	nextChunk:
		for k, payload := range form.payloads {
			h := form.hashes[k]
			// Dedup against committed pages: the hash is advisory, the
			// byte comparison is the truth (collisions cost a read,
			// never correctness).
			for _, id := range s.index[h] {
				got, err := s.readPayloadRaw(id)
				if err != nil {
					return abort(err)
				}
				if bytes.Equal(got, payload) {
					rel.Pages = append(rel.Pages, PageRef{Page: uint32(id), Hash: h})
					shared++
					continue nextChunk
				}
			}
			// Dedup within this commit (two identical chunks in one db).
			for _, i := range byHash[h] {
				if bytes.Equal(staged[i].payload, payload) {
					rel.Pages = append(rel.Pages, PageRef{Page: uint32(staged[i].page), Hash: h})
					shared++
					continue nextChunk
				}
			}
			id, fresh, err := s.acquirePage()
			if err != nil {
				return abort(err)
			}
			acquired = append(acquired, id)
			if !fresh {
				s.pagesReused++
			}
			if err := encodePage(s.page.Data, payload); err != nil {
				return abort(err)
			}
			s.page.ID = id
			if err := s.pager.Write(&s.page); err != nil {
				return abort(err)
			}
			byHash[h] = append(byHash[h], len(staged))
			staged = append(staged, stagedPage{hash: h, page: id, payload: payload})
			rel.Pages = append(rel.Pages, PageRef{Page: uint32(id), Hash: h})
		}
		m.Relations = append(m.Relations, rel)
	}

	// Phase 2: make the pages durable before any WAL record points at
	// them.
	if err := syncPager(s.pager); err != nil {
		return abort(err)
	}

	// Phase 3: the WAL batch — page puts, then the commit record that
	// flips the snapshot live — one write, one fsync. A crash before the
	// final fsync replays as the old state (orphan puts are reclaimed);
	// after it, as the new one.
	m.ID = s.newID()
	m.CreatedUnixMS = time.Now().UnixMilli()
	m.NewPages = len(staged)
	for _, st := range staged {
		if err := s.wal.add(walPagePut, pagePutPayload(st.hash, uint32(st.page))); err != nil {
			return abort(err)
		}
	}
	enc, err := encodeManifest(m)
	if err != nil {
		return abort(err)
	}
	if err := s.wal.add(walCommit, enc); err != nil {
		return abort(err)
	}
	if err := s.wal.flush(); err != nil {
		return abort(err)
	}

	// Phase 4: apply to memory. Nothing here can fail.
	for _, st := range staged {
		s.index[st.hash] = append(s.index[st.hash], st.page)
	}
	for _, id := range m.pageIDs() {
		s.refs[id]++
	}
	s.snaps[m.ID] = m
	s.order = append(s.order, m.ID)
	s.commits++
	s.pagesWritten += int64(len(staged))
	s.pagesShared += int64(shared)
	sp.Set("pages", int64(m.numPages()))
	sp.Set("new_pages", int64(len(staged)))
	sp.Set("shared_pages", int64(shared))
	sp.Set("relations_encoded", int64(encoded))
	sp.Set("relations_reused", int64(len(forms)-encoded))
	return s.metaLocked(m), nil
}

// Fork derives a new snapshot from id: a manifest copy plus refcount
// bumps, durably logged. No page is read or written — this is the O(1)
// branch a session binds to.
func (s *Store) Fork(id string) (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Snapshot{}, fmt.Errorf("snapshot: store is closed")
	}
	src, ok := s.snaps[id]
	if !ok {
		return Snapshot{}, fmt.Errorf("snapshot: no such snapshot %q", id)
	}
	m := src.clone()
	m.ID = s.newID()
	m.Parent = id
	m.CreatedUnixMS = time.Now().UnixMilli()
	enc, err := encodeManifest(m)
	if err != nil {
		return Snapshot{}, err
	}
	if err := s.wal.add(walCommit, enc); err != nil {
		return Snapshot{}, err
	}
	if err := s.wal.flush(); err != nil {
		return Snapshot{}, err
	}
	for _, pid := range m.pageIDs() {
		s.refs[pid]++
	}
	s.snaps[m.ID] = m
	s.order = append(s.order, m.ID)
	s.forks++
	return s.metaLocked(m), nil
}

// Release drops a snapshot. Pages it alone referenced go back on the
// free list — all of them and only them (the CoW property tests assert
// exactness).
func (s *Store) Release(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("snapshot: store is closed")
	}
	m, ok := s.snaps[id]
	if !ok {
		return fmt.Errorf("snapshot: no such snapshot %q", id)
	}
	if err := s.wal.add(walRelease, []byte(id)); err != nil {
		return err
	}
	if err := s.wal.flush(); err != nil {
		return err
	}
	for _, rel := range m.Relations {
		for _, ref := range rel.Pages {
			pid := storage.PageID(ref.Page)
			s.refs[pid]--
			if s.refs[pid] == 0 {
				delete(s.refs, pid)
				s.index[ref.Hash] = removePage(s.index[ref.Hash], pid)
				if len(s.index[ref.Hash]) == 0 {
					delete(s.index, ref.Hash)
				}
				s.free = append(s.free, pid)
			}
		}
	}
	sortPages(s.free)
	delete(s.snaps, id)
	s.order = removeID(s.order, id)
	s.releases++
	return nil
}

// Materialize reconstructs the snapshot as an in-memory database: pages
// read in manifest order, hashes verified, each relation's records decoded
// against its manifest schema (codec.go) — or, for a relation whose stored
// form some database in memory still carries, not decoded again. The result
// is byte-identical (under db.Save) to the database that was committed, its
// tuples canonical and in the committed Rows order, either way; its
// relations are the caller's own (a tuple added to one shows nowhere else).
func (s *Store) Materialize(id string) (*db.Database, error) {
	return s.MaterializeCtx(id, nil)
}

// MaterializeCtx is Materialize under an execution context ("snapshot.
// materialize" span: page and tuple counters, relations decoded and
// shared). The store is locked only while the pages are read and verified;
// decoding works on the copies, so a session binding to a fork does not hold
// up commits, forks and releases — not even a release of the snapshot being
// decoded.
func (s *Store) MaterializeCtx(id string, ec *exec.Context) (*db.Database, error) {
	sp := ec.BeginSpan("snapshot.materialize", id)
	defer ec.EndSpan(sp)
	rels, err := s.readRelations(id)
	if err != nil {
		return nil, err
	}
	d := db.New()
	pages, decoded := 0, 0
	for i := range rels {
		rel := &rels[i]
		if rel.form.rel == nil {
			decoded++
		}
		r, err := rel.relation()
		if err != nil {
			return nil, fmt.Errorf("snapshot: materialize %s relation %s: %w", id, rel.name, err)
		}
		if err := d.Put(rel.name, r); err != nil {
			return nil, fmt.Errorf("snapshot: materialize %s: %w", id, err)
		}
		pages += len(rel.form.payloads)
	}
	if decoded > 0 {
		s.remember(id, rels)
	}
	sp.Set("pages", int64(pages))
	sp.Set("tuples", int64(d.TupleCount()))
	sp.Set("relations_decoded", int64(decoded))
	sp.Set("relations_shared", int64(len(rels)-decoded))
	return d, nil
}

// readRelations is the part of Materialize that needs the store lock: it
// reads every page of the snapshot and checks it against the manifest's
// hash, whoever remembers what. A relation whose manifest entry still
// resolves to a stored form with a relation comes back as that form; the
// others as a copy of their pages, to be decoded outside the lock.
func (s *Store) readRelations(id string) ([]storedRelation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("snapshot: store is closed")
	}
	m, ok := s.snaps[id]
	if !ok {
		return nil, fmt.Errorf("snapshot: no such snapshot %q", id)
	}
	pageSize := s.pager.PageSize()
	out := make([]storedRelation, 0, len(m.Relations))
	for _, rel := range m.Relations {
		sr := storedRelation{name: rel.Name, form: rel.form.Value()}
		shared := sr.form != nil && sr.form.rel != nil
		if shared {
			s.relsShared++
		} else {
			s.relsDecoded++
			sr.form = &storedForm{pageSize: pageSize, attrs: rel.Schema,
				payloads: make([][]byte, 0, len(rel.Pages)), hashes: make([]uint64, 0, len(rel.Pages))}
			sr.stream = make([]byte, 0, len(rel.Pages)*pagePayloadCap(pageSize))
		}
		for _, ref := range rel.Pages {
			payload, err := s.readPayload(ref)
			if err != nil {
				return nil, fmt.Errorf("snapshot: materialize %s relation %s: %w", id, rel.Name, err)
			}
			if shared {
				continue
			}
			n := len(sr.stream)
			sr.stream = append(sr.stream, payload...)
			sr.form.payloads = append(sr.form.payloads, sr.stream[n:len(sr.stream):len(sr.stream)])
			sr.form.hashes = append(sr.form.hashes, ref.Hash)
		}
		out = append(out, sr)
	}
	return out, nil
}

// remember points the snapshot's manifest at the stored forms a materialise
// built for what it decoded, so that the next one — of this snapshot or of
// a fork of it — shares them for as long as the database just handed out,
// or anything derived from it, is alive. The snapshot may be gone by now.
func (s *Store) remember(id string, rels []storedRelation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.snaps[id]
	if !ok {
		return
	}
	for i := range m.Relations {
		if cur := m.Relations[i].form.Value(); cur == nil || cur.rel == nil {
			m.Relations[i].form = weak.Make(rels[i].form)
		}
	}
}

// Get returns one snapshot's metadata.
func (s *Store) Get(id string) (Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.snaps[id]
	if !ok {
		return Snapshot{}, false
	}
	return s.metaLocked(m), true
}

// List returns all live snapshots in commit order.
func (s *Store) List() []Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Snapshot, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.metaLocked(s.snaps[id]))
	}
	return out
}

func (s *Store) metaLocked(m *Manifest) Snapshot {
	return Snapshot{
		ID: m.ID, Parent: m.Parent, DB: m.DB,
		CreatedUnixMS: m.CreatedUnixMS, Tuples: m.Tuples,
		Pages: m.numPages(), NewPages: m.NewPages,
		SharedPages: m.numPages() - m.NewPages,
	}
}

// StoreStats is the store's operational telemetry (see InstallMetrics).
type StoreStats struct {
	Snapshots    int
	PagesLive    int // distinct pages referenced by live snapshots
	PagesFree    int
	PageSize     int
	Commits      int64
	Forks        int64
	Releases     int64
	PagesWritten int64 // content pages physically written
	PagesShared  int64 // page references resolved by dedup instead of a write
	PagesReused  int64 // written pages that recycled a freed slot

	// A commit either encodes a relation or reuses the stored form the
	// relation carries; a materialise either decodes one or shares what a
	// database still in memory holds. Pages are read, verified, compared
	// and written the same on both sides of each pair.
	RelationsEncoded int64
	RelationsReused  int64
	RelationsDecoded int64
	RelationsShared  int64

	WALAppends int64
	WALFlushes int64 // fsync batches
	WALBytes   int64
	Pager      storage.Stats
}

// Stats snapshots the counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Snapshots: len(s.snaps),
		PagesLive: len(s.refs),
		PagesFree: len(s.free),
		PageSize:  s.pager.PageSize(),
		Commits:   s.commits, Forks: s.forks, Releases: s.releases,
		PagesWritten: s.pagesWritten, PagesShared: s.pagesShared, PagesReused: s.pagesReused,
		RelationsEncoded: s.relsEncoded, RelationsReused: s.relsReused,
		RelationsDecoded: s.relsDecoded, RelationsShared: s.relsShared,
		WALAppends: s.wal.appends, WALFlushes: s.wal.flushes, WALBytes: s.wal.nbytes,
		Pager: s.pager.Stats(),
	}
}

// Close syncs and closes the page file and the WAL.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	werr := s.wal.close()
	perr := s.fp.Close()
	if werr != nil {
		return werr
	}
	return perr
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// acquirePage hands out a writable slot: the lowest free slot when one
// exists (fresh=false), else a fresh allocation.
func (s *Store) acquirePage() (storage.PageID, bool, error) {
	if len(s.free) > 0 {
		id := s.free[0]
		s.free = s.free[1:]
		return id, false, nil
	}
	id, err := s.pager.Allocate()
	return id, true, err
}

// encodePages returns the stored form of each of d's relations, in
// insertion order, and how many of them had to be encoded for it — the
// rest carried theirs (formOf).
func encodePages(d *db.Database, pageSize int) (forms []*storedForm, encoded int, err error) {
	if pagePayloadCap(pageSize) <= 0 {
		return nil, 0, fmt.Errorf("snapshot: page size %d too small", pageSize)
	}
	for _, name := range d.Names() {
		r, _ := d.Get(name)
		f, fresh, err := formOf(r, pageSize)
		if err != nil {
			return nil, 0, fmt.Errorf("%w (relation %s)", err, name)
		}
		if fresh {
			encoded++
		}
		forms = append(forms, f)
	}
	return forms, encoded, nil
}

// readPayload reads one referenced page and verifies its content hash. The
// payload aliases the store's page buffer (mu held).
func (s *Store) readPayload(ref PageRef) ([]byte, error) {
	payload, err := s.readPayloadRaw(storage.PageID(ref.Page))
	if err != nil {
		return nil, err
	}
	if h := hashPayload(payload); h != ref.Hash {
		return nil, fmt.Errorf("snapshot: page %d content hash %016x does not match manifest %016x (corrupt store?)",
			ref.Page, h, ref.Hash)
	}
	return payload, nil
}

// readPayloadRaw reads a page's payload without a hash check (dedup
// comparisons carry their own byte-equality truth). The payload aliases the
// store's page buffer (mu held).
func (s *Store) readPayloadRaw(id storage.PageID) ([]byte, error) {
	if err := s.pager.Read(id, s.page.Data); err != nil {
		return nil, err
	}
	return decodePage(s.page.Data)
}

// newID mints "snap<seq>-<8 hex>": readable, log-sortable, unguessable
// across restarts (mirrors the session and query id conventions).
func (s *Store) newID() string {
	s.seq++
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("snap%d", s.seq)
	}
	return fmt.Sprintf("snap%d-%s", s.seq, hex.EncodeToString(b[:]))
}

// idSeq recovers the sequence number from a snapshot id.
func idSeq(id string) int64 {
	rest, ok := strings.CutPrefix(id, "snap")
	if !ok {
		return 0
	}
	if i := strings.IndexByte(rest, '-'); i >= 0 {
		rest = rest[:i]
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

func removeID(ids []string, id string) []string {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

func removePage(ids []storage.PageID, id storage.PageID) []storage.PageID {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

func sortPages(ids []storage.PageID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
