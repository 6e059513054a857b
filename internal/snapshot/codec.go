package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/big"

	"cdb/internal/constraint"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// The byte layout of a snapshot's content. This file is the only place
// that knows it; docs/STORAGE.md has the same tables with what decode
// verifies. A relation is stored as a stream of tuple records, one per
// tuple in relation.Rows order, cut at record boundaries (chunkRecords)
// into fixed-size pages that are addressed by content. Its schema travels
// once, in the manifest, and a record names an attribute by its position
// there.
//
//	page    = [u32 payload length, little-endian] [payload] [zero padding to page size]
//	hash    = FNV-1a 64 over the payload bytes
//	payload = a run of whole records (a record longer than a page spills)
//
//	record  = binding* 0 natoms atom*
//	binding = attr+1 value          attr ascending; a relational attribute
//	value   = string | rat          by the attribute's type
//	string  = len bytes
//	atom    = head term* rat        head = nterms<<2 | op; the rat is the constant
//	op      = 0 '= 0' | 1 '<= 0' | 2 '< 0'
//	term    = attr rat              attr ascending by name; a constraint attribute; rat != 0
//	rat     = den num               den >= 1; num a zig-zag varint
//	        | 0 nlen bytes dlen bytes    a value beyond int64: big-endian magnitudes,
//	                                     nlen a zig-zag varint that carries the sign
//
// Every integer of a record not marked otherwise is a uvarint
// (encoding/binary). The text format of package db is the import/export
// and golden format; it is never stored in a page.
//
// The hash is the same FNV-1a 64 the canonical-constraint kernel uses for
// tuple fingerprints. It is a dedup *hint*, not an identity: before
// sharing a page the store byte-compares the stored payload, so a
// colliding hash costs one extra page read and can never corrupt a
// snapshot (the sat-cache makes the same promise about fingerprints).
//
// Decoding trusts nothing. Positions are bounds- and kind-checked against
// the schema, counts against the bytes left, the expression invariants by
// constraint.SortedExpr, the bindings by relation.AddBound, and every
// conjunction goes through Canon, which only flags what it has itself put
// in canonical form: a damaged stream that passes the page hash decodes to
// an error or to well-formed canonical tuples, never to a mis-flagged one.

// Operator codes of an atom's head. Stored, so spelled out instead of
// borrowed from constraint.Op's numbering.
const (
	opEq = 0
	opLe = 1
	opLt = 2
)

// The fewest bytes an atom (head, den, num) and a term (attr, den, num)
// can take: what bounds a decoded count by the bytes left.
const (
	minAtomBytes = 3
	minTermBytes = 3
)

var errTruncated = errors.New("truncated")

// pagePayloadCap returns the payload bytes one page can carry.
func pagePayloadCap(pageSize int) int { return pageSize - 4 }

// hashPayload is the content address of one page payload.
func hashPayload(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

// encodePage frames a payload into page, a whole page's bytes: the length
// header, the payload, and zeros to the end, so a reused buffer writes the
// same bytes a fresh one would.
func encodePage(page, payload []byte) error {
	if len(payload) > pagePayloadCap(len(page)) {
		return fmt.Errorf("snapshot: payload of %d bytes exceeds %d-byte page", len(payload), len(page))
	}
	binary.LittleEndian.PutUint32(page[0:4], uint32(len(payload)))
	n := copy(page[4:], payload)
	clear(page[4+n:])
	return nil
}

// decodePage extracts the payload from page bytes.
func decodePage(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("snapshot: page of %d bytes has no length header", len(data))
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if int(n) > len(data)-4 {
		return nil, fmt.Errorf("snapshot: page payload length %d exceeds page size %d", n, len(data))
	}
	return data[4 : 4+n], nil
}

// encodeRelation renders r as its record stream and returns it with the
// end offset of every record, and with the relation the stream decodes to:
// r's tuples under a header of their own, in the order they were written.
// Deterministic: Rows order, schema order within a record, so equal
// relations encode to equal bytes — what the page-level dedup relies on.
func encodeRelation(r *relation.Relation) (stream []byte, ends []int, sorted *relation.Relation, err error) {
	s := r.Schema()
	sorted = r.InRowsOrder()
	ends = make([]int, 0, sorted.Len())
	for _, t := range sorted.Tuples() {
		if stream, err = appendRecord(stream, s, t); err != nil {
			return nil, nil, nil, err
		}
		ends = append(ends, len(stream))
	}
	return stream, ends, sorted, nil
}

func appendRecord(b []byte, s schema.Schema, t relation.Tuple) ([]byte, error) {
	for i, a := range s.Attrs() {
		v, bound := t.RVal(a.Name)
		if !bound {
			continue
		}
		b = binary.AppendUvarint(b, uint64(i)+1)
		if str, ok := v.AsString(); ok && a.Type == schema.String {
			b = binary.AppendUvarint(b, uint64(len(str)))
			b = append(b, str...)
		} else if q, ok := v.AsRat(); ok && a.Type == schema.Rational {
			b = appendRat(b, q)
		} else {
			return nil, fmt.Errorf("snapshot: attribute %q holds %s, not a %s", a.Name, v, a.Type)
		}
	}
	b = append(b, 0)
	cs := t.Constraint().Constraints()
	b = binary.AppendUvarint(b, uint64(len(cs)))
	for _, c := range cs {
		var op uint64
		switch c.Op {
		case constraint.Eq:
			op = opEq
		case constraint.Le:
			op = opLe
		case constraint.Lt:
			op = opLt
		default:
			return nil, fmt.Errorf("snapshot: constraint with operator %s", c.Op)
		}
		terms := c.Expr.Terms()
		b = binary.AppendUvarint(b, uint64(len(terms))<<2|op)
		for _, tm := range terms {
			i, ok := s.Index(tm.Var)
			if !ok {
				return nil, fmt.Errorf("snapshot: constraint over %q, which the schema %s lacks", tm.Var, s)
			}
			b = binary.AppendUvarint(b, uint64(i))
			b = appendRat(b, tm.Coef)
		}
		b = appendRat(b, c.Expr.ConstTerm())
	}
	return b, nil
}

func appendRat(b []byte, q rational.Rat) []byte {
	if num, den, ok := q.Inline(); ok {
		b = binary.AppendUvarint(b, uint64(den))
		return binary.AppendVarint(b, num)
	}
	num, den := q.Num(), q.Denom()
	mag := num.Bytes()
	nlen := int64(len(mag))
	if num.Sign() < 0 {
		nlen = -nlen
	}
	b = append(b, 0)
	b = binary.AppendVarint(b, nlen)
	b = append(b, mag...)
	mag = den.Bytes()
	b = binary.AppendUvarint(b, uint64(len(mag)))
	return append(b, mag...)
}

// chunkRecords cuts a record stream into page payloads of at most cap
// bytes. Greedy and record-aligned: records pack into a page until the
// next one would overflow, then a fresh page starts; a record longer than
// a page spills across full pages and the remainder keeps accepting
// records. Alignment is what makes copy-on-write sharing effective —
// appending a tuple re-chunks only the relation's tail, so every page
// before the edit keeps its bytes, hence its hash, and is shared with the
// parent snapshot. Deterministic: equal streams chunk identically.
func chunkRecords(stream []byte, ends []int, cap int) [][]byte {
	var pages [][]byte
	start, prev := 0, 0 // the open page starts at start; the last record ended at prev
	for _, end := range ends {
		if end-start > cap && prev > start {
			pages = append(pages, stream[start:prev])
			start = prev
		}
		for end-start > cap {
			pages = append(pages, stream[start:start+cap])
			start += cap
		}
		prev = end
	}
	if prev > start {
		pages = append(pages, stream[start:prev])
	}
	return pages
}

// decodeRelation rebuilds the relation over s from its record stream (the
// concatenated payloads of its page run). The tuples come back in stream
// order, canonical.
func decodeRelation(s schema.Schema, stream []byte) (*relation.Relation, error) {
	r := relation.New(s)
	d := decoder{buf: stream, attrs: s.Attrs()}
	for n := 0; len(d.buf) > 0; n++ {
		if err := d.record(r); err != nil {
			return nil, fmt.Errorf("snapshot: record %d of %d-byte stream: %w", n, len(stream), err)
		}
	}
	return r, nil
}

// decoder reads records off the front of buf. Terms are carved out of
// slabs, so a relation's expressions cost an allocation per slabLen terms
// instead of one each; a count read from the stream is checked against the
// bytes left before anything is sized by it.
type decoder struct {
	buf   []byte
	attrs []schema.Attribute
	terms []constraint.Term // the unused rest of the current slab
	atoms []constraint.Constraint
	binds []relation.Bound
}

const slabLen = 256

func (d *decoder) record(r *relation.Relation) error {
	d.binds = d.binds[:0]
	for {
		a, err := d.uvarint()
		if err != nil {
			return err
		}
		if a == 0 {
			break
		}
		i := int(a - 1)
		if a > uint64(len(d.attrs)) || (len(d.binds) > 0 && d.binds[len(d.binds)-1].Attr >= i) {
			return fmt.Errorf("binding at schema position %d: out of range or out of order", a-1)
		}
		var v relation.Value
		if d.attrs[i].Type == schema.String {
			n, err := d.uvarint()
			if err != nil {
				return err
			}
			if n > uint64(len(d.buf)) {
				return errTruncated
			}
			v = relation.Str(string(d.buf[:n]))
			d.buf = d.buf[n:]
		} else {
			q, err := d.rat()
			if err != nil {
				return err
			}
			v = relation.Rat(q)
		}
		d.binds = append(d.binds, relation.Bound{Attr: i, Val: v})
	}
	natoms, err := d.uvarint()
	if err != nil {
		return err
	}
	if natoms > uint64(len(d.buf)/minAtomBytes) {
		return errTruncated
	}
	d.atoms = d.atoms[:0]
	for ; natoms > 0; natoms-- {
		c, err := d.atom()
		if err != nil {
			return err
		}
		d.atoms = append(d.atoms, c)
	}
	return r.AddBound(d.binds, constraint.And(d.atoms...).Canon())
}

func (d *decoder) atom() (constraint.Constraint, error) {
	head, err := d.uvarint()
	if err != nil {
		return constraint.Constraint{}, err
	}
	var op constraint.Op
	switch head & 3 {
	case opEq:
		op = constraint.Eq
	case opLe:
		op = constraint.Le
	case opLt:
		op = constraint.Lt
	default:
		return constraint.Constraint{}, errors.New("unknown operator code 3")
	}
	n := head >> 2
	if n > uint64(len(d.buf)/minTermBytes) {
		return constraint.Constraint{}, errTruncated
	}
	terms := d.takeTerms(int(n))
	for k := range terms {
		a, err := d.uvarint()
		if err != nil {
			return constraint.Constraint{}, err
		}
		if a >= uint64(len(d.attrs)) || d.attrs[a].Kind != schema.Constraint {
			return constraint.Constraint{}, fmt.Errorf("term over schema position %d: not a constraint attribute", a)
		}
		coef, err := d.rat()
		if err != nil {
			return constraint.Constraint{}, err
		}
		terms[k] = constraint.Term{Var: d.attrs[a].Name, Coef: coef}
	}
	k, err := d.rat()
	if err != nil {
		return constraint.Constraint{}, err
	}
	e, ok := constraint.SortedExpr(terms, k)
	if !ok {
		return constraint.Constraint{}, errors.New("terms out of order or with a zero coefficient")
	}
	return constraint.Constraint{Expr: e, Op: op}, nil
}

// takeTerms carves n terms off the slab, starting a new one — sized to
// what the rest of the stream holds at the usual density of one term in
// six bytes — when the current one is spent. The result's capacity is n:
// an append by a holder cannot reach a neighbour's terms.
func (d *decoder) takeTerms(n int) []constraint.Term {
	if n == 0 {
		return nil
	}
	if n > len(d.terms) {
		d.terms = make([]constraint.Term, max(n, min(slabLen, len(d.buf)/6+1)))
	}
	out := d.terms[:n:n]
	d.terms = d.terms[n:]
	return out
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, errTruncated
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) rat() (rational.Rat, error) {
	den, err := d.uvarint()
	if err != nil {
		return rational.Rat{}, err
	}
	if den == 0 {
		return d.bigRat()
	}
	num, n := binary.Varint(d.buf)
	if n <= 0 {
		return rational.Rat{}, errTruncated
	}
	d.buf = d.buf[n:]
	switch {
	case den == 1:
		return rational.FromInt(num), nil
	case den > math.MaxInt64:
		return rational.Rat{}, errors.New("inline denominator beyond int64")
	}
	return rational.New(num, int64(den)), nil // reduces: a Rat is in lowest terms whatever the bytes say
}

func (d *decoder) bigRat() (rational.Rat, error) {
	nlen, n := binary.Varint(d.buf)
	if n <= 0 {
		return rational.Rat{}, errTruncated
	}
	d.buf = d.buf[n:]
	neg := nlen < 0
	if neg {
		nlen = -nlen
	}
	if nlen < 0 || nlen > int64(len(d.buf)) {
		return rational.Rat{}, errTruncated
	}
	num := new(big.Int).SetBytes(d.buf[:nlen])
	if neg {
		num.Neg(num)
	}
	d.buf = d.buf[nlen:]
	dlen, err := d.uvarint()
	if err != nil {
		return rational.Rat{}, err
	}
	if dlen > uint64(len(d.buf)) {
		return rational.Rat{}, errTruncated
	}
	den := new(big.Int).SetBytes(d.buf[:dlen])
	d.buf = d.buf[dlen:]
	if den.Sign() == 0 {
		return rational.Rat{}, errors.New("zero denominator")
	}
	return rational.FromBig(new(big.Rat).SetFrac(num, den)), nil
}
