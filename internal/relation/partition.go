package relation

import (
	"slices"
	"strconv"
	"sync/atomic"
)

// This file implements relational-part hash partitioning — the second leg
// of the binary CQA operators' filter-and-refine split (package cqa) — and
// the slot where a relation keeps its filter-stage working sets.
// Join's shared-relational-attribute guard and difference's
// SameRelationalPart scan are both NULL-safe identity tests; partitioning
// each side on that identity turns the O(n·m) guard evaluations into
// bucket lookups, so only pairs inside a matching bucket reach the
// envelope filter and the refine step. Each side is partitioned once per
// relation and attribute list (FilterMemo), and two partitions pair up by
// their keys (Align).
//
// Keys are appended into one buffer reused across the tuples: looking up a
// bucket that exists allocates nothing, and a new bucket allocates its key.

// filterMemo is a relation's filter-stage working sets: a copy-on-write
// list, so a reader loads it once and never sees it change under it, and
// two callers that work over different attribute lists each keep theirs.
type filterMemo struct{ list atomic.Pointer[[]filterEntry] }

// filterEntry is one working set and the attribute lists it was built over.
type filterEntry struct {
	rel, con []string
	v        any
}

// FilterMemo returns the value build derives from r's tuples over the
// relational attribute list rel and the constraint attribute list con — the
// filter stage's working set of r as one input of a binary operator (package
// cqa: canonical tuples, a Partition on rel, envelopes projected onto con) —
// building it on the first call for those lists and handing the same value
// back after, until a tuple is added. The value is opaque to this package,
// as Memo's is. Safe beside other readers of r, one of which may build too
// (the first value stored wins; both derive from the same tuples); like every
// read, not beside Add.
func (r *Relation) FilterMemo(rel, con []string, build func() any) any {
	m := r.filterCell()
	var list *[]filterEntry
	find := func() (any, bool) {
		list = m.list.Load()
		if list == nil {
			return nil, false
		}
		for _, e := range *list {
			if slices.Equal(e.rel, rel) && slices.Equal(e.con, con) {
				return e.v, true
			}
		}
		return nil, false
	}
	if v, ok := find(); ok {
		return v
	}
	e := filterEntry{rel: slices.Clone(rel), con: slices.Clone(con), v: build()}
	for {
		var grown []filterEntry
		if list != nil {
			grown = slices.Clip(*list)
		}
		grown = append(grown, e)
		if m.list.CompareAndSwap(list, &grown) {
			return e.v
		}
		if v, ok := find(); ok {
			return v
		}
	}
}

// filterCell returns r's filter memo, attaching an empty one first when r
// has none.
func (r *Relation) filterCell() *filterMemo {
	if m := r.filter.Load(); m != nil {
		return m
	}
	r.filter.CompareAndSwap(nil, &filterMemo{})
	return r.filter.Load()
}

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
	index   map[string]int // key -> bucket number; nil over no attribute
	buckets [][]int        // bucket number -> member indexes, ascending
}

// NewPartition indexes ts on the given attributes (see PartitionKey).
// Indexing the full relational attribute set of a schema partitions
// exactly by SameRelationalPart: bindings outside the schema cannot
// exist, and absent bindings read as NULL on both sides. Over no attribute
// every tuple has the one identity: the partition is the single in-order
// bucket, built without a key or a map.
func NewPartition(ts []Tuple, attrs []string) *Partition {
	p := &Partition{}
	if len(attrs) == 0 {
		if len(ts) > 0 {
			all := make([]int, len(ts))
			for i := range all {
				all[i] = i
			}
			p.buckets = [][]int{all}
		}
		return p
	}
	p.index = make(map[string]int)
	ids := make([]int, len(ts))
	var sizes []int
	var stack [64]byte
	buf := stack[:0]
	for i := range ts {
		buf = ts[i].appendPartitionKey(buf[:0], attrs)
		b, ok := p.index[string(buf)]
		if !ok {
			b = len(sizes)
			p.index[string(buf)] = b
			sizes = append(sizes, 0)
		}
		ids[i] = b
		sizes[b]++
	}
	// The buckets are ascending slices of one backing array.
	p.buckets = make([][]int, len(sizes))
	backing := make([]int, 0, len(ids))
	for b, n := range sizes {
		p.buckets[b] = backing[len(backing) : len(backing) : len(backing)+n]
		backing = backing[:len(backing)+n]
	}
	for i, b := range ids {
		p.buckets[b] = append(p.buckets[b], i)
	}
	return p
}

// Align returns, for each bucket of p, the members of q's bucket of the
// same identity — nil where q has none — so that bucket b pairs p's
// Buckets()[b] with the result's [b]. p and q must partition on the same
// attribute list. It looks up the keys of the partition with fewer buckets
// in the other's index: no tuple is visited and no key is built.
func (p *Partition) Align(q *Partition) [][]int {
	out := make([][]int, len(p.buckets))
	switch {
	case p.index == nil: // no attribute: at most one bucket a side
		if len(out) > 0 && len(q.buckets) > 0 {
			out[0] = q.buckets[0]
		}
	case len(q.index) < len(p.index):
		for k, qb := range q.index {
			if b, ok := p.index[k]; ok {
				out[b] = q.buckets[qb]
			}
		}
	default:
		for k, b := range p.index {
			if qb, ok := q.index[k]; ok {
				out[b] = q.buckets[qb]
			}
		}
	}
	return out
}

// Buckets returns the buckets by number (order of first appearance). The
// result must not be mutated.
func (p *Partition) Buckets() [][]int { return p.buckets }
