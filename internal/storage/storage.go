// Package storage provides the paged-storage substrate under the CQA/CDB
// index layer.
//
// The paper's §5.4 experiments measure index quality in *disk accesses*:
// every R*-tree node visited during a query is one page read. This package
// makes that metric first-class: a Pager abstracts a page store and counts
// reads, writes and allocations; an optional LRU BufferPool models a cache
// between the tree and the "disk" (the paper's raw counts correspond to a
// pool of capacity zero); MemPager and FilePager provide in-memory and
// file-backed page stores with identical semantics.
package storage

import (
	"fmt"
	"sync"
)

// PageID identifies a page. Zero is never a valid page id.
type PageID uint32

// DefaultPageSize is the page size used throughout the system (a classic
// 4 KiB disk page).
const DefaultPageSize = 4096

// Page is one fixed-size page. Data always has the pager's page size.
type Page struct {
	ID   PageID
	Data []byte
}

// Stats counts page-level operations. Reads is the paper's "number of disk
// accesses" metric.
type Stats struct {
	Reads  uint64 // pages fetched from the store
	Writes uint64 // pages written to the store
	Allocs uint64 // pages allocated
	Frees  uint64 // pages freed
	Hits   uint64 // buffer pool hits (BufferPool only)
	Misses uint64 // buffer pool misses (BufferPool only)
}

// Pager is a page store.
//
// Read copies the page content into buf, which the caller owns and which
// must be exactly one page long; the pager keeps no reference to it, so one
// buffer serves any number of reads. Write persists a copy of the page: the
// caller may reuse p.Data as soon as it returns. Allocate returns a fresh
// zeroed page id.
type Pager interface {
	PageSize() int
	Allocate() (PageID, error)
	Read(id PageID, buf []byte) error
	Write(p *Page) error
	Free(id PageID) error
	Stats() Stats
	ResetStats()
}

// MemPager is an in-memory Pager. It is safe for concurrent use.
type MemPager struct {
	mu       sync.Mutex
	pageSize int
	pages    map[PageID][]byte
	next     PageID
	stats    Stats
}

// NewMemPager returns an in-memory pager with the given page size
// (DefaultPageSize when size <= 0).
func NewMemPager(size int) *MemPager {
	if size <= 0 {
		size = DefaultPageSize
	}
	return &MemPager{pageSize: size, pages: map[PageID][]byte{}, next: 1}
}

// PageSize returns the page size in bytes.
func (m *MemPager) PageSize() int { return m.pageSize }

// Allocate returns a fresh zeroed page.
func (m *MemPager) Allocate() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.next
	m.next++
	m.pages[id] = make([]byte, m.pageSize)
	m.stats.Allocs++
	return id, nil
}

// Read copies the page into buf.
func (m *MemPager) Read(id PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.pages[id]
	if !ok {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	if err := checkReadBuf(buf, m.pageSize); err != nil {
		return err
	}
	m.stats.Reads++
	copy(buf, data)
	return nil
}

// checkReadBuf rejects a read buffer that is not exactly one page.
func checkReadBuf(buf []byte, pageSize int) error {
	if len(buf) != pageSize {
		return fmt.Errorf("storage: read of %d-byte page into %d bytes", pageSize, len(buf))
	}
	return nil
}

// Write persists the page.
func (m *MemPager) Write(p *Page) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.pages[p.ID]; !ok {
		return fmt.Errorf("storage: write to unallocated page %d", p.ID)
	}
	if len(p.Data) != m.pageSize {
		return fmt.Errorf("storage: write of %d bytes to %d-byte page", len(p.Data), m.pageSize)
	}
	buf := make([]byte, m.pageSize)
	copy(buf, p.Data)
	m.pages[p.ID] = buf
	m.stats.Writes++
	return nil
}

// Free releases the page.
func (m *MemPager) Free(id PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.pages[id]; !ok {
		return fmt.Errorf("storage: free of unallocated page %d", id)
	}
	delete(m.pages, id)
	m.stats.Frees++
	return nil
}

// Stats returns the operation counters.
func (m *MemPager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ResetStats zeroes the counters.
func (m *MemPager) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats = Stats{}
}

// NumPages returns the number of live pages.
func (m *MemPager) NumPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pages)
}

// HighWater returns the highest page id ever allocated (0 when none).
// Together with a caller-side reachability set this lets a layer above
// (the snapshot store) reclaim pages that were allocated but never
// referenced by a durable commit.
func (m *MemPager) HighWater() PageID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.next - 1
}

// Sync is a no-op: memory has no durability boundary.
func (m *MemPager) Sync() error { return nil }
