package rstar

import (
	"fmt"

	"cdb/internal/storage"
)

// This file implements the two indexing strategies compared in §5 of the
// paper for a relation with k indexed (rational) attributes:
//
//   - JointIndex: a single k-dimensional R*-tree over all attributes
//     together (the paper's proposal);
//   - SeparateIndex: one 1-dimensional R*-tree per attribute, with query
//     results intersected by data id (the strategy of the original
//     constraint-database indexing literature [Kanellakis et al. 1996],
//     the paper's baseline);
//   - ScanIndex: no index at all — a linear scan over the stored tuples,
//     the sanity floor.
//
// All three implement Index, and all three report the number of page
// accesses a query costs, so the experiment harness can interchange them.
//
// An "item" is a data id plus one interval per attribute. A relational
// attribute value is the degenerate interval [v, v]; a constraint
// attribute contributes its exact bounding interval. Open/closed-ness is
// deliberately dropped here: the index is a conservative filter, the exact
// constraint layer refines.

// Index is a multi-attribute index over items with k per-attribute
// intervals.
type Index interface {
	// Add indexes the item. The rect must have the index's dimension.
	Add(r Rect, id int64) error
	// Query returns the candidate ids whose rects intersect the query,
	// plus the number of page accesses spent.
	Query(q Rect) (ids []int64, accesses uint64, err error)
	// Dim returns the number of indexed attributes.
	Dim() int
}

// JointIndex is a single multi-dimensional R*-tree over all attributes.
type JointIndex struct {
	tree  *Tree
	pager storage.Pager
}

// NewJointIndex builds a joint index of the given dimension on a fresh
// in-memory pager.
func NewJointIndex(dim int, pageSize int, opts Options) (*JointIndex, error) {
	pager := storage.NewMemPager(pageSize)
	tree, err := New(pager, dim, opts)
	if err != nil {
		return nil, err
	}
	return &JointIndex{tree: tree, pager: pager}, nil
}

// Dim returns the indexed dimension count.
func (j *JointIndex) Dim() int { return j.tree.dim }

// Add indexes one item.
func (j *JointIndex) Add(r Rect, id int64) error { return j.tree.Insert(r, id) }

// Query searches the single tree. A query restricting only some of the
// attributes leaves the other dimensions at (-inf, +inf), exactly as the
// paper describes ("the bound of the other attribute is set from minimum
// to maximum").
func (j *JointIndex) Query(q Rect) ([]int64, uint64, error) {
	before := j.pager.Stats().Reads
	ids, err := j.tree.Search(q)
	if err != nil {
		return nil, 0, err
	}
	return ids, j.pager.Stats().Reads - before, nil
}

// SeparateIndex maintains one 1-D R*-tree per attribute. A k-attribute
// query runs one search per restricted attribute and intersects the id
// sets; the access count is the sum over the sub-queries (§5.4.1: "the
// overall number of disk accesses was the sum of the numbers for the two
// subqueries").
type SeparateIndex struct {
	trees  []*Tree
	pagers []*storage.MemPager
}

// NewSeparateIndex builds dim 1-dimensional indices.
func NewSeparateIndex(dim int, pageSize int, opts Options) (*SeparateIndex, error) {
	s := &SeparateIndex{}
	for i := 0; i < dim; i++ {
		pager := storage.NewMemPager(pageSize)
		tree, err := New(pager, 1, opts)
		if err != nil {
			return nil, err
		}
		s.trees = append(s.trees, tree)
		s.pagers = append(s.pagers, pager)
	}
	return s, nil
}

// Dim returns the number of attributes.
func (s *SeparateIndex) Dim() int { return len(s.trees) }

// Add indexes the item's per-attribute intervals in the per-attribute
// trees.
func (s *SeparateIndex) Add(r Rect, id int64) error {
	if r.Dim() != len(s.trees) {
		return fmt.Errorf("rstar: %d-dim item on %d separate indices", r.Dim(), len(s.trees))
	}
	for i, t := range s.trees {
		if err := t.Insert(r.Project(i), id); err != nil {
			return err
		}
	}
	return nil
}

// unbounded reports whether the query leaves dimension i effectively
// unrestricted (infinite on both sides).
func unbounded(q Rect, i int) bool {
	return q.Min[i] < -1e307 && q.Max[i] > 1e307
}

// Query runs one sub-query per restricted attribute and intersects the
// results by id.
func (s *SeparateIndex) Query(q Rect) ([]int64, uint64, error) {
	if q.Dim() != len(s.trees) {
		return nil, 0, fmt.Errorf("rstar: %d-dim query on %d separate indices", q.Dim(), len(s.trees))
	}
	var accesses uint64
	var result map[int64]bool
	restricted := 0
	for i, t := range s.trees {
		if unbounded(q, i) {
			continue
		}
		restricted++
		before := s.pagers[i].Stats().Reads
		ids, err := t.Search(q.Project(i))
		if err != nil {
			return nil, 0, err
		}
		accesses += s.pagers[i].Stats().Reads - before
		set := make(map[int64]bool, len(ids))
		for _, id := range ids {
			set[id] = true
		}
		if result == nil {
			result = set
			continue
		}
		for id := range result {
			if !set[id] {
				delete(result, id)
			}
		}
	}
	if restricted == 0 {
		// Fully unrestricted query: every item qualifies; scan one tree.
		before := s.pagers[0].Stats().Reads
		ids, err := s.trees[0].Search(q.Project(0))
		if err != nil {
			return nil, 0, err
		}
		return ids, s.pagers[0].Stats().Reads - before, nil
	}
	out := make([]int64, 0, len(result))
	for id := range result {
		out = append(out, id)
	}
	return out, accesses, nil
}

// ScanIndex is the no-index baseline: items are stored in page-sized runs
// and every query reads all of them.
type ScanIndex struct {
	dim     int
	items   []scanItem
	perPage int
}

type scanItem struct {
	r  Rect
	id int64
}

// NewScanIndex builds a linear-scan "index".
func NewScanIndex(dim, pageSize int) *ScanIndex {
	per := pageSize / entrySize(dim)
	if per < 1 {
		per = 1
	}
	return &ScanIndex{dim: dim, perPage: per}
}

// Dim returns the number of attributes.
func (s *ScanIndex) Dim() int { return s.dim }

// Add stores the item.
func (s *ScanIndex) Add(r Rect, id int64) error {
	if r.Dim() != s.dim {
		return fmt.Errorf("rstar: %d-dim item on %d-dim scan", r.Dim(), s.dim)
	}
	s.items = append(s.items, scanItem{r: r, id: id})
	return nil
}

// Query scans everything: accesses = ceil(n / itemsPerPage).
func (s *ScanIndex) Query(q Rect) ([]int64, uint64, error) {
	var out []int64
	for _, it := range s.items {
		if it.r.Intersects(q) {
			out = append(out, it.id)
		}
	}
	pages := (len(s.items) + s.perPage - 1) / s.perPage
	return out, uint64(pages), nil
}

// UnboundedQuery builds a query rect restricting only the listed
// dimensions; the rest span (-inf, inf). bounds maps dimension index to
// [lo, hi].
func UnboundedQuery(dim int, bounds map[int][2]float64) Rect {
	const inf = 1e308
	min := make([]float64, dim)
	max := make([]float64, dim)
	for i := 0; i < dim; i++ {
		min[i], max[i] = -inf, inf
	}
	for i, b := range bounds {
		min[i], max[i] = b[0], b[1]
	}
	return Rect{Min: min, Max: max}
}
