package snapshot

import (
	"bytes"

	"cdb/internal/relation"
)

// storedForm is a relation's stored form at one page size: the page
// payloads a commit deduplicates and writes, and the relation a materialise
// hands back for them. It is immutable once published and lives exactly as
// long as a relation that carries it: it hangs off the relation's memo slot
// (relation.Relation.Memo, which Add clears), a manifest's relation entry
// points at it weakly, and the store holds it nowhere else — no cache, no
// size, no eviction; a snapshot nobody has in memory pins nothing.
//
// Commit makes one for a relation that has none (formOf) and, for a
// relation that has, skips ordering, encoding, chunking and hashing;
// Materialize makes one for what it decoded (readRelations, assemble) and,
// where the manifest entry still resolves, decodes nothing. What neither
// skips is in snapshot.go: every page of a materialise is read and checked
// against its hash, every page a commit shares is byte-compared first.
type storedForm struct {
	pageSize int
	attrs    []Attr   // the schema as a manifest stores it
	payloads [][]byte // the record stream as chunkRecords cuts it
	hashes   []uint64 // hashPayload of each payload

	// rel is what decodeRelation rebuilds from the payloads: canonical
	// tuples in Rows order. A commit has it without decoding — the tuples it
	// encoded, under a header and a slice of their own — when every one of
	// them was flagged canonical, and leaves it nil otherwise (decode would
	// canonicalise; the next materialise does, and remembers its result).
	// It is never handed out itself, only as a Clone, so nobody holds a
	// header through which a tuple could be added to it.
	rel *relation.Relation
}

// formOf returns r's stored form at pageSize: the one r carries, or a fresh
// one (encoded reports which) that r carries from now on.
func formOf(r *relation.Relation, pageSize int) (f *storedForm, encoded bool, err error) {
	if f, ok := r.Memo().(*storedForm); ok && f.pageSize == pageSize {
		return f, false, nil
	}
	stream, ends, sorted, err := encodeRelation(r)
	if err != nil {
		return nil, false, err
	}
	stream = bytes.Clone(stream) // kept as long as r is: without the slack the appends left
	f = &storedForm{pageSize: pageSize, attrs: attrsOf(r.Schema()),
		payloads: chunkRecords(stream, ends, pagePayloadCap(pageSize))}
	f.hashes = make([]uint64, len(f.payloads))
	for i, p := range f.payloads {
		f.hashes[i] = hashPayload(p)
	}
	canonical := true
	for _, t := range sorted.Tuples() {
		canonical = canonical && t.Constraint().IsCanonical()
	}
	if canonical {
		sorted.SetMemo(f)
		f.rel = sorted
	}
	r.SetMemo(f)
	return f, true, nil
}

// storedRelation is one relation of a snapshot between the two halves of a
// materialise: its stored form, and — when the form has no relation yet —
// the record stream its payloads are cut from, verified against the
// manifest's hashes but not yet decoded.
type storedRelation struct {
	name   string
	form   *storedForm
	stream []byte
}

// relation returns a private copy of the relation sr stores, decoding the
// stream first if nobody has yet.
func (sr *storedRelation) relation() (*relation.Relation, error) {
	if sr.form.rel == nil {
		s, err := schemaOf(sr.form.attrs)
		if err != nil {
			return nil, err
		}
		r, err := decodeRelation(s, sr.stream)
		if err != nil {
			return nil, err
		}
		r.SetMemo(sr.form)
		sr.form.rel = r
	}
	return sr.form.rel.Clone(), nil
}
