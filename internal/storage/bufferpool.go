package storage

import (
	"container/list"
	"sync"
)

// BufferPool is an LRU page cache layered over another Pager. Reads served
// from the pool do not count as disk accesses on the underlying pager —
// the pool's own Stats track hits and misses, while the underlying pager's
// Reads remain the true disk-access count.
//
// The §5.4 experiments run with no pool (or capacity 0) so that every node
// visit is a counted access, matching the paper's methodology; the pool
// exists to show the same workloads under a realistic cache (ablation).
type BufferPool struct {
	mu    sync.Mutex
	under Pager
	cap   int
	ll    *list.List // front = most recent; values are *poolEntry
	byID  map[PageID]*list.Element
	stats Stats
}

type poolEntry struct {
	id    PageID
	data  []byte
	dirty bool
}

// NewBufferPool wraps under with an LRU cache of the given capacity (in
// pages). Capacity <= 0 disables caching (pass-through).
func NewBufferPool(under Pager, capacity int) *BufferPool {
	return &BufferPool{
		under: under,
		cap:   capacity,
		ll:    list.New(),
		byID:  map[PageID]*list.Element{},
	}
}

// PageSize returns the underlying page size.
func (b *BufferPool) PageSize() int { return b.under.PageSize() }

// Allocate allocates on the underlying pager.
func (b *BufferPool) Allocate() (PageID, error) { return b.under.Allocate() }

// Read copies the page into buf, from cache when possible.
func (b *BufferPool) Read(id PageID, buf []byte) error {
	if err := checkReadBuf(buf, b.under.PageSize()); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats.Reads++
	if el, ok := b.byID[id]; ok {
		b.stats.Hits++
		b.ll.MoveToFront(el)
		copy(buf, el.Value.(*poolEntry).data)
		return nil
	}
	b.stats.Misses++
	if err := b.under.Read(id, buf); err != nil {
		return err
	}
	b.admit(id, buf, false)
	return nil
}

// Write stores the page in the pool (write-back) or directly when caching
// is disabled.
func (b *BufferPool) Write(p *Page) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats.Writes++
	if b.cap <= 0 {
		return b.under.Write(p)
	}
	buf := make([]byte, len(p.Data))
	copy(buf, p.Data)
	if el, ok := b.byID[p.ID]; ok {
		e := el.Value.(*poolEntry)
		e.data = buf
		e.dirty = true
		b.ll.MoveToFront(el)
		return nil
	}
	return b.admitLocked(p.ID, buf, true)
}

// admit inserts a clean/dirty page into the cache, evicting as needed.
// Caller holds the lock.
func (b *BufferPool) admit(id PageID, data []byte, dirty bool) {
	if b.cap <= 0 {
		return
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	_ = b.admitLocked(id, buf, dirty)
}

func (b *BufferPool) admitLocked(id PageID, buf []byte, dirty bool) error {
	el := b.ll.PushFront(&poolEntry{id: id, data: buf, dirty: dirty})
	b.byID[id] = el
	for b.ll.Len() > b.cap {
		back := b.ll.Back()
		e := back.Value.(*poolEntry)
		if e.dirty {
			if err := b.under.Write(&Page{ID: e.id, Data: e.data}); err != nil {
				return err
			}
		}
		b.ll.Remove(back)
		delete(b.byID, e.id)
	}
	return nil
}

// Flush writes every dirty cached page through to the underlying pager.
func (b *BufferPool) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for el := b.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*poolEntry)
		if e.dirty {
			if err := b.under.Write(&Page{ID: e.id, Data: e.data}); err != nil {
				return err
			}
			e.dirty = false
		}
	}
	return nil
}

// Free drops the page from the cache and the underlying pager.
func (b *BufferPool) Free(id PageID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if el, ok := b.byID[id]; ok {
		b.ll.Remove(el)
		delete(b.byID, id)
	}
	return b.under.Free(id)
}

// Stats returns the pool's counters (Reads/Hits/Misses are pool-level;
// the underlying pager holds the true disk counts).
func (b *BufferPool) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// ResetStats zeroes the pool counters.
func (b *BufferPool) ResetStats() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats = Stats{}
}
