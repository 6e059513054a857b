package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
)

// FilePager is a file-backed Pager: page i lives at byte offset
// headerSize + (i-1)*pageSize. A small header records the page size and
// the high-water page id so a database file can be reopened.
//
// Free pages are kept on an in-file free list (the first 4 bytes of a free
// page link to the next free page).
type FilePager struct {
	mu       sync.Mutex
	f        *os.File
	pageSize int
	next     PageID
	freeHead PageID
	stats    Stats
}

const filePagerHeaderSize = 16

var filePagerMagic = [4]byte{'C', 'D', 'B', '1'}

// OpenFilePager opens (or creates) a page file. For new files, size sets
// the page size (DefaultPageSize when <= 0); for existing files the stored
// page size is used and size is ignored.
func OpenFilePager(path string, size int) (*FilePager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	p := &FilePager{f: f}
	if st.Size() == 0 {
		if size <= 0 {
			size = DefaultPageSize
		}
		p.pageSize = size
		p.next = 1
		if err := p.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
		return p, nil
	}
	var hdr [filePagerHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: read header: %w", err)
	}
	if [4]byte(hdr[0:4]) != filePagerMagic {
		f.Close()
		return nil, fmt.Errorf("storage: %s is not a CDB page file", path)
	}
	p.pageSize = int(binary.LittleEndian.Uint32(hdr[4:8]))
	p.next = PageID(binary.LittleEndian.Uint32(hdr[8:12]))
	p.freeHead = PageID(binary.LittleEndian.Uint32(hdr[12:16]))
	return p, nil
}

func (p *FilePager) writeHeader() error {
	var hdr [filePagerHeaderSize]byte
	copy(hdr[0:4], filePagerMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(p.pageSize))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(p.next))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(p.freeHead))
	_, err := p.f.WriteAt(hdr[:], 0)
	return err
}

func (p *FilePager) offset(id PageID) int64 {
	return filePagerHeaderSize + int64(id-1)*int64(p.pageSize)
}

// PageSize returns the page size in bytes.
func (p *FilePager) PageSize() int { return p.pageSize }

// Allocate returns a fresh zeroed page, reusing freed pages when possible.
func (p *FilePager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Allocs++
	zero := make([]byte, p.pageSize)
	if p.freeHead != 0 {
		id := p.freeHead
		var link [4]byte
		if _, err := p.f.ReadAt(link[:], p.offset(id)); err != nil {
			return 0, err
		}
		p.freeHead = PageID(binary.LittleEndian.Uint32(link[:]))
		if _, err := p.f.WriteAt(zero, p.offset(id)); err != nil {
			return 0, err
		}
		return id, p.writeHeader()
	}
	id := p.next
	p.next++
	if _, err := p.f.WriteAt(zero, p.offset(id)); err != nil {
		return 0, err
	}
	return id, p.writeHeader()
}

// Read reads the page content into buf.
func (p *FilePager) Read(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id == 0 || id >= p.next {
		return fmt.Errorf("storage: read of invalid page %d", id)
	}
	if err := checkReadBuf(buf, p.pageSize); err != nil {
		return err
	}
	if _, err := p.f.ReadAt(buf, p.offset(id)); err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	p.stats.Reads++
	return nil
}

// Write persists the page.
func (p *FilePager) Write(pg *Page) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pg.ID == 0 || pg.ID >= p.next {
		return fmt.Errorf("storage: write to invalid page %d", pg.ID)
	}
	if len(pg.Data) != p.pageSize {
		return fmt.Errorf("storage: write of %d bytes to %d-byte page", len(pg.Data), p.pageSize)
	}
	if _, err := p.f.WriteAt(pg.Data, p.offset(pg.ID)); err != nil {
		return err
	}
	p.stats.Writes++
	return nil
}

// Free links the page onto the free list.
func (p *FilePager) Free(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id == 0 || id >= p.next {
		return fmt.Errorf("storage: free of invalid page %d", id)
	}
	var link [4]byte
	binary.LittleEndian.PutUint32(link[:], uint32(p.freeHead))
	if _, err := p.f.WriteAt(link[:], p.offset(id)); err != nil {
		return err
	}
	p.freeHead = id
	p.stats.Frees++
	return p.writeHeader()
}

// HighWater returns the highest page id ever allocated (0 when none).
func (p *FilePager) HighWater() PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.next - 1
}

// Sync flushes the header and fsyncs the file: every page written before
// Sync returns is durable. The snapshot store calls this before it
// appends the WAL records that reference those pages, which is what
// makes a commit atomic across a crash.
func (p *FilePager) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.writeHeader(); err != nil {
		return err
	}
	return p.f.Sync()
}

// Stats returns the operation counters.
func (p *FilePager) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ResetStats zeroes the counters.
func (p *FilePager) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats = Stats{}
}

// Close syncs and closes the underlying file.
func (p *FilePager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.writeHeader(); err != nil {
		p.f.Close()
		return err
	}
	if err := p.f.Sync(); err != nil {
		p.f.Close()
		return err
	}
	return p.f.Close()
}
