package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cdb/internal/schema"
)

// Fuzz targets for the two untrusted-byte surfaces: manifest JSON (WAL
// commit-record payloads) and the WAL file itself. Both must hold the
// same line: corrupt bytes may be rejected, but they can never panic and
// never load as a silently-wrong snapshot. The committed corpora under
// testdata/fuzz/ replay in ordinary `go test` runs, so every regression
// found by fuzzing stays fixed.

var boxAttrs = attrsOf(schema.MustNew(schema.Rel("id", schema.String), schema.Con("x"), schema.Con("y")))

func validManifestBytes(t interface{ Fatal(...any) }) []byte {
	m := &Manifest{
		ID: "snap1-deadbeef", Parent: "", DB: "land",
		CreatedUnixMS: 1700000000000, Tuples: 42, NewPages: 2,
		Relations: []RelationPages{
			{Name: "Land", Schema: boxAttrs, Pages: []PageRef{{Page: 1, Hash: 0xfeedface}, {Page: 2, Hash: 0x1234}}},
			{Name: "Owner", Schema: boxAttrs, Pages: []PageRef{{Page: 2, Hash: 0x1234}}},
		},
	}
	data, err := encodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func FuzzManifest(f *testing.F) {
	f.Add(validManifestBytes(f))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"id":"x","relations":[]}`))
	f.Add([]byte(`{"id":"x","relations":[{"name":"R","pages":[{"page":0,"hash":1}]}]}`))
	f.Add([]byte(`{"id":"x","bogus":true,"relations":[]}`))
	f.Add([]byte(`{"id":"x","relations":[]}{"id":"y","relations":[]}`))
	f.Add([]byte(`not json at all`))
	// Stored schemas: one the schema package accepts, then an unknown
	// type, an unknown kind, a string constraint attribute, a duplicate.
	f.Add([]byte(`{"id":"x","relations":[{"name":"R","schema":["a b string relational","x rational constraint"],"pages":[]}]}`))
	f.Add([]byte(`{"id":"x","relations":[{"name":"R","schema":["a float relational"],"pages":[]}]}`))
	f.Add([]byte(`{"id":"x","relations":[{"name":"R","schema":["a string maybe"],"pages":[]}]}`))
	f.Add([]byte(`{"id":"x","relations":[{"name":"R","schema":["a string constraint"],"pages":[]}]}`))
	f.Add([]byte(`{"id":"x","relations":[{"name":"R","schema":["a string relational","a rational constraint"],"pages":[]}]}`))
	f.Add([]byte(`{"id":"x","relations":[{"name":"R","schema":["string relational"," rational constraint"],"pages":[]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		// Anything that decodes must round-trip losslessly and survive
		// its own validation again.
		enc, err := encodeManifest(m)
		if err != nil {
			t.Fatalf("decoded manifest does not re-encode: %v", err)
		}
		m2, err := decodeManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("manifest round-trip drifted:\n%+v\n%+v", m, m2)
		}
		// Derived accessors must not panic on any valid manifest, and its
		// schemas are ones a relation can be built over.
		_ = m.numPages()
		_ = m.pageIDs()
		_ = m.clone()
		for _, rel := range m.Relations {
			if _, err := rel.schema(); err != nil {
				t.Fatalf("validated manifest carries an unusable schema: %v", err)
			}
		}
	})
}

// walBytes builds a syntactically valid WAL image from records.
func walBytes(recs ...walRecord) []byte {
	var buf bytes.Buffer
	buf.WriteString(walMagic)
	for _, r := range recs {
		buf.Write(frame(r.typ, r.payload))
	}
	return buf.Bytes()
}

func FuzzWALReplay(f *testing.F) {
	manifest := validManifestBytes(f)
	f.Add([]byte(walMagic))
	f.Add(walBytes(walRecord{walCommit, manifest}))
	f.Add(walBytes(
		walRecord{walPagePut, pagePutPayload(0xfeedface, 1)},
		walRecord{walPagePut, pagePutPayload(0x1234, 2)},
		walRecord{walCommit, manifest},
		walRecord{walRelease, []byte("snap1-deadbeef")},
	))
	// Torn tail: a full record then half of another.
	full := walBytes(walRecord{walCommit, manifest})
	torn := append(append([]byte{}, full...), frame(walCommit, manifest)[:7]...)
	f.Add(torn)
	f.Add([]byte("CDBWALX\n garbage"))
	f.Add(append([]byte("CDBWAL1\n"), full[len(walMagic):]...)) // another format version: refused whole
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good, err := readWAL(bytes.NewReader(data))
		if err != nil {
			return
		}
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d out of range [0,%d]", good, len(data))
		}
		// Truncating to the good prefix and re-reading must be a fixed
		// point: same records, same offset (recovery is idempotent).
		recs2, good2, err2 := readWAL(bytes.NewReader(data[:good]))
		if err2 != nil {
			t.Fatalf("good prefix does not re-read: %v", err2)
		}
		if good2 != good || len(recs2) != len(recs) {
			t.Fatalf("truncated replay drifted: %d/%d records, %d/%d bytes", len(recs2), len(recs), good2, good)
		}
		for i := range recs {
			if recs[i].typ != recs2[i].typ || !bytes.Equal(recs[i].payload, recs2[i].payload) {
				t.Fatalf("record %d drifted across truncation", i)
			}
		}

		// A store opened over these bytes must either open consistently
		// or reject them — never panic, never serve a snapshot it cannot
		// materialize.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{PageSize: testPageSize})
		if err != nil {
			return
		}
		defer s.Close()
		for _, meta := range s.List() {
			d, err := s.MaterializeCtx(meta.ID, nil)
			if err != nil {
				// Acceptable: the manifest replayed but its pages are
				// absent from the (empty) page file; the error is the
				// contract. What would not be acceptable is a panic or a
				// silently empty database with a nonzero page count.
				continue
			}
			if meta.Pages > 0 && d.TupleCount() == 0 && meta.Tuples > 0 {
				t.Fatalf("snapshot %s silently lost its tuples", meta.ID)
			}
		}
	})
}
