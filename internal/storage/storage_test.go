package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestMemPagerBasics(t *testing.T) {
	p := NewMemPager(0)
	if p.PageSize() != DefaultPageSize {
		t.Errorf("page size = %d", p.PageSize())
	}
	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("allocated page id 0")
	}
	pg, err := read(p, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(pg) != DefaultPageSize {
		t.Errorf("read %d bytes", len(pg))
	}
	copy(pg, "hello")
	if err := p.Write(&Page{ID: id, Data: pg}); err != nil {
		t.Fatal(err)
	}
	// Reads return copies: mutating them must not corrupt the store.
	pg2, _ := read(p, id)
	copy(pg2, "WRECK")
	pg3, _ := read(p, id)
	if !bytes.HasPrefix(pg3, []byte("hello")) {
		t.Error("read did not return a copy")
	}
	st := p.Stats()
	if st.Reads != 3 || st.Writes != 1 || st.Allocs != 1 {
		t.Errorf("stats = %+v", st)
	}
	p.ResetStats()
	if p.Stats().Reads != 0 {
		t.Error("reset failed")
	}
	if err := p.Free(id); err != nil {
		t.Fatal(err)
	}
	if _, err := read(p, id); err == nil {
		t.Error("read of freed page succeeded")
	}
	if err := p.Write(&Page{ID: 99, Data: make([]byte, DefaultPageSize)}); err == nil {
		t.Error("write to unallocated page succeeded")
	}
}

// read reads page id into a fresh buffer.
func read(p Pager, id PageID) ([]byte, error) {
	buf := make([]byte, p.PageSize())
	return buf, p.Read(id, buf)
}

func TestMemPagerWriteSizeCheck(t *testing.T) {
	p := NewMemPager(128)
	id, _ := p.Allocate()
	if err := p.Write(&Page{ID: id, Data: make([]byte, 64)}); err == nil {
		t.Error("short write accepted")
	}
}

func TestBufferPoolCounting(t *testing.T) {
	under := NewMemPager(128)
	pool := NewBufferPool(under, 2)
	ids := make([]PageID, 3)
	for i := range ids {
		id, _ := pool.Allocate()
		ids[i] = id
		buf := make([]byte, 128)
		buf[0] = byte(i + 1)
		if err := pool.Write(&Page{ID: id, Data: buf}); err != nil {
			t.Fatal(err)
		}
	}
	under.ResetStats()
	// Page ids[2] and ids[1] are cached (capacity 2, LRU evicted ids[0]).
	if _, err := read(pool, ids[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := read(pool, ids[1]); err != nil {
		t.Fatal(err)
	}
	if got := under.Stats().Reads; got != 0 {
		t.Errorf("cached reads hit disk %d times", got)
	}
	// ids[0] was evicted (written back) and must hit the disk.
	pg, err := read(pool, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if pg[0] != 1 {
		t.Errorf("evicted page content lost: %d", pg[0])
	}
	if got := under.Stats().Reads; got != 1 {
		t.Errorf("disk reads = %d, want 1", got)
	}
	st := pool.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("pool stats = %+v", st)
	}
}

func TestBufferPoolFlush(t *testing.T) {
	under := NewMemPager(64)
	pool := NewBufferPool(under, 4)
	id, _ := pool.Allocate()
	buf := make([]byte, 64)
	copy(buf, "dirty")
	if err := pool.Write(&Page{ID: id, Data: buf}); err != nil {
		t.Fatal(err)
	}
	// Not yet on "disk".
	raw, _ := read(under, id)
	if bytes.HasPrefix(raw, []byte("dirty")) {
		t.Error("write-back wrote through immediately")
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	raw2, _ := read(under, id)
	if !bytes.HasPrefix(raw2, []byte("dirty")) {
		t.Error("flush did not persist")
	}
}

func TestBufferPoolPassThrough(t *testing.T) {
	under := NewMemPager(64)
	pool := NewBufferPool(under, 0)
	id, _ := pool.Allocate()
	buf := make([]byte, 64)
	buf[5] = 42
	if err := pool.Write(&Page{ID: id, Data: buf}); err != nil {
		t.Fatal(err)
	}
	under.ResetStats()
	if _, err := read(pool, id); err != nil {
		t.Fatal(err)
	}
	if _, err := read(pool, id); err != nil {
		t.Fatal(err)
	}
	if got := under.Stats().Reads; got != 2 {
		t.Errorf("pass-through reads = %d, want 2", got)
	}
}

func TestFilePagerPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.cdb")
	p, err := OpenFilePager(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := p.Allocate()
	id2, _ := p.Allocate()
	buf := make([]byte, 256)
	copy(buf, "persisted")
	if err := p.Write(&Page{ID: id2, Data: buf}); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(id1); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: page size, contents, and the free list must survive.
	p2, err := OpenFilePager(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.PageSize() != 256 {
		t.Errorf("page size after reopen = %d", p2.PageSize())
	}
	pg, err := read(p2, id2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(pg, []byte("persisted")) {
		t.Error("content lost across reopen")
	}
	// Freed page is recycled.
	id3, err := p2.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id3 != id1 {
		t.Errorf("free list not reused: got %d, want %d", id3, id1)
	}
	// Recycled page must be zeroed.
	pg3, _ := read(p2, id3)
	for _, b := range pg3 {
		if b != 0 {
			t.Error("recycled page not zeroed")
			break
		}
	}
	if _, err := read(p2, 999); err == nil {
		t.Error("read of invalid page succeeded")
	}
}

func TestFilePagerRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := writeFile(path, []byte("not a page file at all...")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFilePager(path, 0); err == nil {
		t.Error("foreign file accepted")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func TestBufferPoolAccessors(t *testing.T) {
	under := NewMemPager(128)
	pool := NewBufferPool(under, 2)
	if pool.PageSize() != 128 {
		t.Errorf("page size = %d", pool.PageSize())
	}
	id, _ := pool.Allocate()
	if err := pool.Write(&Page{ID: id, Data: make([]byte, 128)}); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	if pool.Stats().Writes != 0 {
		t.Error("reset failed")
	}
	// Free drops the cached page and the underlying page.
	if err := pool.Free(id); err != nil {
		t.Fatal(err)
	}
	if _, err := read(pool, id); err == nil {
		t.Error("read of freed page via pool succeeded")
	}
	if under.NumPages() != 0 {
		t.Errorf("underlying pages = %d", under.NumPages())
	}
}

func TestFilePagerStatsAndFreeList(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.cdb")
	p, err := OpenFilePager(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	id, _ := p.Allocate()
	pg, _ := read(p, id)
	_ = p.Write(&Page{ID: id, Data: pg})
	st := p.Stats()
	if st.Allocs != 1 || st.Reads != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v", st)
	}
	p.ResetStats()
	if p.Stats().Reads != 0 {
		t.Error("reset failed")
	}
	if err := p.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(999); err == nil {
		t.Error("free of invalid page accepted")
	}
	if err := p.Write(&Page{ID: 999, Data: make([]byte, 128)}); err == nil {
		t.Error("write to invalid page accepted")
	}
	if err := p.Write(&Page{ID: id, Data: make([]byte, 5)}); err == nil {
		t.Error("short write accepted")
	}
}
