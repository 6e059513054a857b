package relation

import "strconv"

// This file implements relational-part hash partitioning — the second leg
// of the binary CQA operators' filter-and-refine split (package cqa).
// Join's shared-relational-attribute guard and difference's
// SameRelationalPart scan are both NULL-safe identity tests; partitioning
// each side once on that identity turns the O(n·m) guard evaluations into
// bucket lookups, so only pairs inside a matching bucket reach the
// envelope filter and the refine step.
//
// Keys are appended into one buffer reused across the tuples: looking up a
// bucket that exists allocates nothing, and a new bucket allocates its key.

// PartitionKey returns the NULL-safe identity key of t's bindings over
// attrs: two tuples get equal keys iff their values are Identical on
// every listed attribute (an absent binding is NULL, and NULL is
// identical to NULL — the paper's narrow semantics). Each value key is
// length-prefixed so adjacent fields cannot alias.
func (t Tuple) PartitionKey(attrs []string) string {
	return string(t.appendPartitionKey(nil, attrs))
}

// appendPartitionKey appends PartitionKey(attrs) to b.
func (t Tuple) appendPartitionKey(b []byte, attrs []string) []byte {
	var vbuf [48]byte
	for _, a := range attrs {
		v, _ := t.RVal(a) // NULL when unbound
		k := v.appendKey(vbuf[:0])
		b = strconv.AppendInt(b, int64(len(k)), 10)
		b = append(b, ':')
		b = append(b, k...)
	}
	return b
}

// Partition is a hash index of a tuple slice on its relational identity
// over a fixed attribute list. Buckets are numbered in order of first
// appearance and hold indexes into the indexed slice in input order, so
// bucket-driven pair enumeration preserves the sequential nested-loop
// order within a bucket.
type Partition struct {
	attrs   []string
	index   map[string]int // key -> bucket number
	buckets [][]int        // bucket number -> member indexes, ascending
}

// NewPartition indexes ts on the given attributes (see PartitionKey).
// Indexing the full relational attribute set of a schema partitions
// exactly by SameRelationalPart: bindings outside the schema cannot
// exist, and absent bindings read as NULL on both sides.
func NewPartition(ts []Tuple, attrs []string) *Partition {
	p := &Partition{attrs: append([]string{}, attrs...), index: make(map[string]int)}
	p.buckets = p.group(ts, true)
	return p
}

// Match partitions ts on p's attributes into p's buckets: out[b] holds,
// in input order, the indexes of the ts whose identity is bucket b's.
// Tuples whose identity p does not hold are left out; out[b] of a bucket
// none matches is empty. Matching allocates no key.
func (p *Partition) Match(ts []Tuple) [][]int { return p.group(ts, false) }

// group assigns each of ts to the bucket of its identity — a new bucket for
// a new identity when add is set, none otherwise — and returns the buckets'
// members as ascending slices of one backing array.
func (p *Partition) group(ts []Tuple, add bool) [][]int {
	ids := make([]int, len(ts))
	sizes := make([]int, len(p.index))
	var stack [64]byte
	buf := stack[:0]
	for i := range ts {
		buf = ts[i].appendPartitionKey(buf[:0], p.attrs)
		b, ok := p.index[string(buf)]
		switch {
		case ok:
		case add:
			b = len(p.index)
			p.index[string(buf)] = b
			sizes = append(sizes, 0)
		default:
			ids[i] = -1
			continue
		}
		ids[i] = b
		sizes[b]++
	}
	out := make([][]int, len(sizes))
	backing := make([]int, 0, len(ids))
	for b, n := range sizes {
		out[b] = backing[len(backing) : len(backing) : len(backing)+n]
		backing = backing[:len(backing)+n]
	}
	for i, b := range ids {
		if b >= 0 {
			out[b] = append(out[b], i)
		}
	}
	return out
}

// Buckets returns the buckets by number (order of first appearance). The
// result must not be mutated.
func (p *Partition) Buckets() [][]int { return p.buckets }

// Lookup returns the indexes of the indexed tuples whose identity over
// the partition's attributes matches t's, in input order. The result
// must not be mutated.
func (p *Partition) Lookup(t Tuple) []int {
	var buf [64]byte
	if b, ok := p.index[string(t.appendPartitionKey(buf[:0], p.attrs))]; ok {
		return p.buckets[b]
	}
	return nil
}

// Len returns the number of buckets.
func (p *Partition) Len() int { return len(p.index) }
