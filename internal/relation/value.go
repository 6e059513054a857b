// Package relation implements heterogeneous constraint relations — the data
// model of CQA/CDB (§2.3 and §3 of the paper).
//
// A tuple has two parts:
//
//   - a relational part: bindings of relational attributes to concrete
//     values (a missing binding is NULL, the narrow interpretation);
//   - a constraint part: a conjunction of rational linear constraints over
//     the constraint attributes (an unconstrained attribute admits every
//     value, the broad interpretation).
//
// A relation is a finite set of such tuples over a fixed schema; its
// semantics is the union of the (possibly infinite) point sets denoted by
// its tuples.
package relation

import (
	"strconv"

	"cdb/internal/rational"
)

// ValueKind discriminates Value.
type ValueKind int

const (
	// KindNull is the absent/unknown value of a relational attribute.
	KindNull ValueKind = iota
	// KindString is a symbolic value.
	KindString
	// KindRational is an exact rational value.
	KindRational
)

// Value is a concrete value of a relational attribute: a string, a
// rational, or NULL. The zero value is NULL.
type Value struct {
	kind ValueKind
	s    string
	r    rational.Rat
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Rat returns a rational value.
func Rat(r rational.Rat) Value { return Value{kind: KindRational, r: r} }

// Int returns a rational value equal to the integer n.
func Int(n int64) Value { return Rat(rational.FromInt(n)) }

// Kind returns the kind of v.
func (v Value) Kind() ValueKind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsString returns the string payload; ok is false for non-string values.
func (v Value) AsString() (string, bool) {
	return v.s, v.kind == KindString
}

// AsRat returns the rational payload; ok is false for non-rational values.
func (v Value) AsRat() (rational.Rat, bool) {
	return v.r, v.kind == KindRational
}

// Equal implements query-level equality: NULL is not equal to anything,
// including NULL (SQL three-valued flavour collapsed to false). Use
// Identical for set-identity comparisons.
func (v Value) Equal(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull || v.kind != o.kind {
		return false
	}
	if v.kind == KindString {
		return v.s == o.s
	}
	return v.r.Equal(o.r)
}

// Identical implements set-identity equality: NULL is identical to NULL.
// This is the notion used by union deduplication and difference matching.
func (v Value) Identical(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindString:
		return v.s == o.s
	default:
		return v.r.Equal(o.r)
	}
}

// String renders the value; strings are quoted, NULL renders as "null".
func (v Value) String() string {
	var buf [48]byte
	return string(v.appendTo(buf[:0]))
}

// appendTo appends the String rendering of v to b.
func (v Value) appendTo(b []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(b, "null"...)
	case KindString:
		return strconv.AppendQuote(b, v.s)
	default:
		return v.r.AppendTo(b)
	}
}

// Key returns a canonical comparable key for the value.
func (v Value) Key() string {
	var buf [48]byte
	return string(v.appendKey(buf[:0]))
}

// appendKey appends Key() to b.
func (v Value) appendKey(b []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(b, "\x00null"...)
	case KindString:
		return append(append(b, "s:"...), v.s...)
	default:
		return v.r.AppendTo(append(b, "r:"...))
	}
}

// FNV-1a, 64 bit.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashString folds the bytes of s into the running hash h.
func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// hash folds v into the running hash h: Identical values fold identically
// (see rational.Rat.Hash), and nothing is rendered.
func (v Value) hash(h uint64) uint64 {
	h = (h ^ uint64(v.kind)) * fnvPrime64
	if v.kind == KindString {
		return hashString(h, v.s)
	}
	return v.r.Hash(h)
}
