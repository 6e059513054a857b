package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The write-ahead log is the store's durability boundary: page content
// becomes *reachable* only when a CRC-framed commit record referencing
// it is fully on disk. Records are appended in batches (one batch per
// Commit/Fork/Release) with a single fsync at the end, and the batch's
// last record — the commit or release itself — is what flips state:
// earlier records without it are orphans that replay reclaims.
//
// Frame layout, little-endian:
//
//	[u32 payload length] [1 byte record type] [payload] [u32 CRC-32/IEEE]
//
// with the CRC computed over type+payload. Replay reads frames until
// EOF, a short frame, or a CRC mismatch; everything from the first bad
// byte on is a torn tail and is truncated away, so a crash mid-append
// always rolls back to the last fully-written record.
//
// The digit of the magic is the store's format version, page content
// included (the log is the source of truth for which pages mean
// anything). Version 1 held query-language text in its pages; version 2
// holds the binary records of codec.go and each relation's schema in its
// manifest. There is one format: a log of any other version is refused
// with ErrFormatVersion, untouched.
const (
	walMagic       = "CDBWAL2\n"
	walMagicPrefix = "CDBWAL"
)

// ErrFormatVersion is what Open returns (wrapped) for a store written by
// another version of the format. Nothing is truncated or rewritten;
// export with the version that wrote it (snapshot → db.Save) and import
// the text.
var ErrFormatVersion = errors.New("snapshot: unsupported store format version")

// Record types.
const (
	walPagePut = 'P' // u64 content hash, u32 page slot: payload stored
	walCommit  = 'C' // manifest JSON: snapshot becomes live
	walRelease = 'R' // snapshot id bytes: snapshot leaves the live set
)

// maxWALPayload bounds a frame so a corrupt length field cannot ask
// replay to allocate gigabytes.
const maxWALPayload = 1 << 26

// walRecord is one decoded frame.
type walRecord struct {
	typ     byte
	payload []byte
}

// wal is the append side. Records are staged in batch and written with
// one Write+Sync by flush, so the torn-tail window is a single
// contiguous byte range at the end of the file.
type wal struct {
	f       *os.File
	fault   *Fault
	goodOff int64 // end of the last fully flushed batch
	batch   bytes.Buffer
	broken  bool // an append/flush failed and self-heal also failed

	appends int64 // records staged (monotone, for metrics)
	flushes int64 // fsync batches
	nbytes  int64 // bytes durably appended
}

// openWAL opens (or creates) the log at path, replays every intact
// record, truncates any torn tail, and returns the append handle plus
// the replayed records.
func openWAL(path string, fault *Fault) (*wal, []walRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &wal{f: f, fault: fault}
	if st.Size() == 0 {
		if _, err := f.Write([]byte(walMagic)); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
		w.goodOff = int64(len(walMagic))
		return w, nil, nil
	}
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("snapshot: read wal: %w", err)
	}
	recs, good, err := readWAL(bytes.NewReader(data))
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if good < st.Size() {
		// Torn tail from a crash mid-append: cut it so future appends
		// start at a record boundary.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("snapshot: truncate torn wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w.goodOff = good
	return w, recs, nil
}

// readWAL decodes records from r (which must start with the magic).
// It returns the intact records and the offset of the first byte that is
// not part of a fully intact record — the truncation point for a torn
// tail. Only the magic check and I/O failures are errors; a torn or
// corrupt tail is a normal crash artifact.
func readWAL(r io.Reader) ([]walRecord, int64, error) {
	br := newByteCounter(r)
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magic); err != nil || !bytes.HasPrefix(magic, []byte(walMagicPrefix)) {
		return nil, 0, fmt.Errorf("snapshot: not a CDB write-ahead log")
	}
	if string(magic) != walMagic {
		return nil, 0, fmt.Errorf("%w: log starts %q, this build reads %q", ErrFormatVersion, magic, walMagic)
	}
	var recs []walRecord
	good := br.n
	for {
		var hdr [5]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return recs, good, nil // EOF or short header: done
		}
		plen := binary.LittleEndian.Uint32(hdr[0:4])
		if plen > maxWALPayload {
			return recs, good, nil // corrupt length: torn tail
		}
		body, ok := readAtMost(br, int(plen)+4)
		if !ok {
			return recs, good, nil // short frame: torn tail
		}
		payload := body[:plen]
		want := binary.LittleEndian.Uint32(body[plen:])
		crc := crc32.NewIEEE()
		crc.Write(hdr[4:5])
		crc.Write(payload)
		if crc.Sum32() != want {
			return recs, good, nil // bit rot or torn frame
		}
		recs = append(recs, walRecord{typ: hdr[4], payload: payload})
		good = br.n
	}
}

// readAtMost reads exactly n bytes, growing the buffer in bounded steps
// so a corrupt multi-megabyte length field on a short (torn) frame bails
// out at EOF instead of allocating the full claimed size up front.
func readAtMost(r io.Reader, n int) ([]byte, bool) {
	const step = 64 << 10
	cap0 := n
	if cap0 > step {
		cap0 = step
	}
	buf := make([]byte, 0, cap0)
	var chunk [step]byte
	for len(buf) < n {
		want := n - len(buf)
		if want > step {
			want = step
		}
		m, err := io.ReadFull(r, chunk[:want])
		buf = append(buf, chunk[:m]...)
		if err != nil {
			return nil, false
		}
	}
	return buf, true
}

// byteCounter counts consumed bytes so readWAL can report the exact
// truncation offset.
type byteCounter struct {
	r io.Reader
	n int64
}

func newByteCounter(r io.Reader) *byteCounter { return &byteCounter{r: r} }

func (b *byteCounter) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}

// frame renders one record's wire bytes.
func frame(typ byte, payload []byte) []byte {
	out := make([]byte, 0, 9+len(payload))
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(payload)))
	out = append(out, u32[:]...)
	out = append(out, typ)
	out = append(out, payload...)
	crc := crc32.NewIEEE()
	crc.Write([]byte{typ})
	crc.Write(payload)
	binary.LittleEndian.PutUint32(u32[:], crc.Sum32())
	return append(out, u32[:]...)
}

// add stages one record onto the current batch. This is where the WAL
// fault point lives: an armed append simulates a crash by physically
// writing the batch-so-far plus (when Torn) half the new frame, fsyncing
// that partial image, then hanging or failing — exactly the bytes a real
// crash at this point could leave behind. The torn image deliberately
// stays on disk and the wal marks itself dead (the "process" crashed);
// the crash-consistency suite reopens the directory and asserts that
// replay truncates the tail back to the previous state.
func (w *wal) add(typ byte, payload []byte) error {
	if w.broken {
		return fmt.Errorf("snapshot: wal is failed; reopen the store")
	}
	fr := frame(typ, payload)
	if w.fault.onWALAppend() {
		partial := append([]byte{}, w.batch.Bytes()...)
		if w.fault.Torn {
			partial = append(partial, fr[:len(fr)/2]...)
		}
		if _, err := w.f.Write(partial); err == nil {
			_ = w.f.Sync()
		}
		if w.fault.Hang {
			w.fault.block()
		}
		w.broken = true
		w.batch.Reset()
		return ErrInjected
	}
	w.appends++
	w.batch.Write(fr)
	return nil
}

// flush writes the staged batch in one Write and fsyncs it. On success
// the batch's records are durable; on failure the file is healed back to
// the last good offset so the next batch starts clean.
func (w *wal) flush() error {
	if w.broken {
		return fmt.Errorf("snapshot: wal is failed; reopen the store")
	}
	n := int64(w.batch.Len())
	if n == 0 {
		return nil
	}
	if _, err := w.f.Write(w.batch.Bytes()); err != nil {
		w.heal()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.heal()
		return err
	}
	w.goodOff += n
	w.nbytes += n
	w.flushes++
	w.batch.Reset()
	return nil
}

// discard drops a staged-but-unflushed batch (commit aborted before the
// WAL was touched on disk).
func (w *wal) discard() { w.batch.Reset() }

// heal rolls the file back to the last fully flushed batch after a
// failed or torn write, so the in-process store keeps a valid log. If
// the rollback itself fails the wal is marked broken and every further
// append refuses.
func (w *wal) heal() {
	w.batch.Reset()
	if err := w.f.Truncate(w.goodOff); err != nil {
		w.broken = true
		return
	}
	if _, err := w.f.Seek(w.goodOff, io.SeekStart); err != nil {
		w.broken = true
	}
}

func (w *wal) close() error {
	return w.f.Close()
}

// pagePutPayload encodes a walPagePut record body.
func pagePutPayload(hash uint64, page uint32) []byte {
	var b [12]byte
	binary.LittleEndian.PutUint64(b[0:8], hash)
	binary.LittleEndian.PutUint32(b[8:12], page)
	return b[:]
}

// decodePagePut decodes a walPagePut record body.
func decodePagePut(payload []byte) (hash uint64, page uint32, err error) {
	if len(payload) != 12 {
		return 0, 0, fmt.Errorf("snapshot: page-put record has %d bytes, want 12", len(payload))
	}
	return binary.LittleEndian.Uint64(payload[0:8]), binary.LittleEndian.Uint32(payload[8:12]), nil
}
