package storage_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"cdb/internal/snapshot"
	"cdb/internal/storage"
)

// TestPagerReadWriteContract holds every Pager to the buffer contract: Read
// fills the caller's buffer, and no pager keeps a reference to that buffer
// or to a written page's Data — each is scribbled on after the call and the
// page read again. The pool runs both cached (its hit and miss paths: with
// room for one page, reading a second page evicts the first) and as a
// pass-through.
func TestPagerReadWriteContract(t *testing.T) {
	const size = 128
	for _, tc := range []struct {
		name string
		open func(t *testing.T) storage.Pager
	}{
		{"mem", func(*testing.T) storage.Pager { return storage.NewMemPager(size) }},
		{"file", func(t *testing.T) storage.Pager {
			p, err := storage.OpenFilePager(filepath.Join(t.TempDir(), "pages.cdb"), size)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			return p
		}},
		{"pool", func(*testing.T) storage.Pager { return storage.NewBufferPool(storage.NewMemPager(size), 1) }},
		{"pool-passthrough", func(*testing.T) storage.Pager { return storage.NewBufferPool(storage.NewMemPager(size), 0) }},
		{"fault", func(*testing.T) storage.Pager {
			return snapshot.NewFaultPager(storage.NewMemPager(size), &snapshot.Fault{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.open(t)
			pattern := func(seed byte) []byte {
				b := make([]byte, size)
				for i := range b {
					b[i] = seed + byte(i)
				}
				return b
			}
			write := func(id storage.PageID, seed byte) {
				t.Helper()
				data := pattern(seed)
				if err := p.Write(&storage.Page{ID: id, Data: data}); err != nil {
					t.Fatal(err)
				}
				copy(data, bytes.Repeat([]byte{0xEE}, size)) // the pager must have copied
			}
			// read fills a buffer holding something else, checks it, and
			// scribbles on it afterwards.
			read := func(id storage.PageID, seed byte) {
				t.Helper()
				buf := bytes.Repeat([]byte{0xAA}, size)
				if err := p.Read(id, buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, pattern(seed)) {
					t.Fatalf("page %d: Read did not fill the caller's buffer with the page: % x", id, buf[:8])
				}
				clear(buf)
			}
			a, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			b, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			write(a, 1)
			read(a, 1)
			read(a, 1)
			write(b, 7)
			read(b, 7) // evicts a from a one-page pool
			read(a, 1) // a miss: the pool admits what it read into the caller's buffer
			read(a, 1) // and the hit must not be the buffer scribbled on since
			read(b, 7)

			for _, n := range []int{size - 1, size + 1} {
				if err := p.Read(a, make([]byte, n)); err == nil {
					t.Errorf("Read into %d bytes of a %d-byte page succeeded", n, size)
				}
			}
		})
	}
}
