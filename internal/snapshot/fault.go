package snapshot

import (
	"errors"
	"sync"

	"cdb/internal/storage"
)

// ErrInjected is the error every injected fault surfaces as. The
// crash-consistency suite asserts that a commit failing with ErrInjected
// leaves the store serving exactly its previous state, both in-process
// and after a reopen.
var ErrInjected = errors.New("snapshot: injected fault")

// Fault injects storage failures at exact points on the commit path: the
// Nth page write through a FaultPager, or the Nth WAL record append.
// Counters are cumulative over the Fault's lifetime, so "the 7th append
// since open" is a stable crash point regardless of batching.
//
// Torn makes the failing write leave a partial prefix behind (half the
// page, half the WAL frame) before erroring — the classic torn-write
// crash window. Hang makes the failing operation durable-then-block
// instead of returning, which is how the check.sh smoke holds a daemon
// mid-commit for an external kill -9.
type Fault struct {
	// PageWriteN fails the Nth page write (1-based; 0 = never).
	PageWriteN int
	// WALAppendN fails the Nth WAL record append (1-based; 0 = never).
	WALAppendN int
	// Torn writes a partial prefix before failing.
	Torn bool
	// Hang blocks forever instead of returning from the failed op.
	Hang bool

	mu         sync.Mutex
	pageWrites int
	walAppends int
}

// hit advances a counter and reports whether this is the armed op.
func (f *Fault) hit(counter *int, n int) bool {
	if n <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	*counter++
	return *counter == n
}

func (f *Fault) onPageWrite() bool {
	if f == nil {
		return false
	}
	return f.hit(&f.pageWrites, f.PageWriteN)
}

func (f *Fault) onWALAppend() bool {
	if f == nil {
		return false
	}
	return f.hit(&f.walAppends, f.WALAppendN)
}

// block parks the calling goroutine forever (the kill -9 window).
func (f *Fault) block() {
	select {}
}

// FaultPager wraps a Pager and fails its Nth Write according to the
// Fault. A torn failure writes the first half of the page (new bytes)
// with the rest zeroed — the on-disk state a power cut mid-write leaves
// behind — then returns ErrInjected. Reads, allocations and stats pass
// through untouched, so the CoW accounting tests can still observe the
// underlying pager.
type FaultPager struct {
	under storage.Pager
	fault *Fault
}

// NewFaultPager wraps under with fault injection.
func NewFaultPager(under storage.Pager, fault *Fault) *FaultPager {
	return &FaultPager{under: under, fault: fault}
}

func (p *FaultPager) PageSize() int                            { return p.under.PageSize() }
func (p *FaultPager) Allocate() (storage.PageID, error)        { return p.under.Allocate() }
func (p *FaultPager) Read(id storage.PageID, buf []byte) error { return p.under.Read(id, buf) }
func (p *FaultPager) Free(id storage.PageID) error             { return p.under.Free(id) }
func (p *FaultPager) Stats() storage.Stats                     { return p.under.Stats() }
func (p *FaultPager) ResetStats()                              { p.under.ResetStats() }

// Write fails at the armed point; otherwise it passes through.
func (p *FaultPager) Write(pg *storage.Page) error {
	if !p.fault.onPageWrite() {
		return p.under.Write(pg)
	}
	if p.fault.Torn {
		torn := make([]byte, len(pg.Data))
		copy(torn[:len(torn)/2], pg.Data[:len(torn)/2])
		_ = p.under.Write(&storage.Page{ID: pg.ID, Data: torn})
	}
	if p.fault.Hang {
		p.fault.block()
	}
	return ErrInjected
}

// HighWater forwards to the underlying pager when it tracks one.
func (p *FaultPager) HighWater() storage.PageID {
	if hw, ok := p.under.(interface{ HighWater() storage.PageID }); ok {
		return hw.HighWater()
	}
	return 0
}

// Sync forwards to the underlying pager when it has a durability
// boundary.
func (p *FaultPager) Sync() error {
	if sy, ok := p.under.(interface{ Sync() error }); ok {
		return sy.Sync()
	}
	return nil
}
