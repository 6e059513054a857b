package rstar

import (
	"fmt"
	"sort"
	"strings"

	"cdb/internal/storage"
)

// This file addresses the open problem the paper states at the end of §5:
//
//	"Given a constraint relation over attributes X = {x1, ..., xk},
//	 determine a set of subsets of X that should correspond to indices
//	 over X, with one index per subset."
//
// PartitionedIndex generalises the two §5 strategies to an arbitrary
// partition of the attributes (JointIndex is the one-block partition,
// SeparateIndex the all-singletons partition): one R*-tree per block,
// query results intersected across blocks. Advise then solves the open
// problem empirically, the way §5.3 says it must be solved ("the
// selectivity of various attributes and the kinds of queries that are
// 'typical' will need to be considered"): it enumerates all partitions of
// the attribute set, replays a training workload on each, and returns the
// cheapest — an exact workload-driven physical-design search, feasible
// because partitions of small k are few (Bell(4) = 15).

// PartitionedIndex maintains one multi-dimensional R*-tree per attribute
// block.
type PartitionedIndex struct {
	dim    int
	blocks [][]int
	trees  []*Tree
	pagers []*storage.MemPager
}

// NewPartitionedIndex builds an index for the given partition of
// {0..dim-1}. Blocks must be disjoint, non-empty, and cover every
// dimension.
func NewPartitionedIndex(dim int, blocks [][]int, pageSize int, opts Options) (*PartitionedIndex, error) {
	seen := make([]bool, dim)
	for _, b := range blocks {
		if len(b) == 0 {
			return nil, fmt.Errorf("rstar: empty block in partition")
		}
		for _, d := range b {
			if d < 0 || d >= dim {
				return nil, fmt.Errorf("rstar: dimension %d out of range", d)
			}
			if seen[d] {
				return nil, fmt.Errorf("rstar: dimension %d in two blocks", d)
			}
			seen[d] = true
		}
	}
	for d, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("rstar: dimension %d not covered by partition", d)
		}
	}
	p := &PartitionedIndex{dim: dim, blocks: blocks}
	for _, b := range blocks {
		pager := storage.NewMemPager(pageSize)
		tree, err := New(pager, len(b), opts)
		if err != nil {
			return nil, err
		}
		p.trees = append(p.trees, tree)
		p.pagers = append(p.pagers, pager)
	}
	return p, nil
}

// Dim returns the total number of indexed attributes.
func (p *PartitionedIndex) Dim() int { return p.dim }

// projectRect restricts a rect to the block's dimensions.
func projectRect(r Rect, block []int) Rect {
	min := make([]float64, len(block))
	max := make([]float64, len(block))
	for i, d := range block {
		min[i], max[i] = r.Min[d], r.Max[d]
	}
	return Rect{Min: min, Max: max}
}

// Add indexes the item in every block tree.
func (p *PartitionedIndex) Add(r Rect, id int64) error {
	if r.Dim() != p.dim {
		return fmt.Errorf("rstar: %d-dim item on %d-dim partitioned index", r.Dim(), p.dim)
	}
	for i, b := range p.blocks {
		if err := p.trees[i].Insert(projectRect(r, b), id); err != nil {
			return err
		}
	}
	return nil
}

// Query runs one sub-query per block containing at least one restricted
// dimension and intersects the id sets; access counts sum over the
// sub-queries (the §5.4.1 accounting).
func (p *PartitionedIndex) Query(q Rect) ([]int64, uint64, error) {
	if q.Dim() != p.dim {
		return nil, 0, fmt.Errorf("rstar: %d-dim query on %d-dim partitioned index", q.Dim(), p.dim)
	}
	var accesses uint64
	var result map[int64]bool
	restricted := 0
	for i, b := range p.blocks {
		blockRestricted := false
		for _, d := range b {
			if !unbounded(q, d) {
				blockRestricted = true
				break
			}
		}
		if !blockRestricted {
			continue
		}
		restricted++
		before := p.pagers[i].Stats().Reads
		ids, err := p.trees[i].Search(projectRect(q, b))
		if err != nil {
			return nil, 0, err
		}
		accesses += p.pagers[i].Stats().Reads - before
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
		before := p.pagers[0].Stats().Reads
		ids, err := p.trees[0].Search(projectRect(q, p.blocks[0]))
		if err != nil {
			return nil, 0, err
		}
		return ids, p.pagers[0].Stats().Reads - before, nil
	}
	out := make([]int64, 0, len(result))
	for id := range result {
		out = append(out, id)
	}
	return out, accesses, nil
}

// PartitionCost is the measured cost of one candidate partition.
type PartitionCost struct {
	Blocks   [][]int
	Accesses uint64
}

// String renders the partition as "{x0,x1}{x2}".
func (pc PartitionCost) String() string {
	var b strings.Builder
	for _, blk := range pc.Blocks {
		b.WriteByte('{')
		for i, d := range blk {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "x%d", d)
		}
		b.WriteByte('}')
	}
	return b.String()
}

// Advice is the advisor's result: every candidate's measured cost, best
// first.
type Advice struct {
	Best       PartitionCost
	Candidates []PartitionCost
}

// Advise enumerates all partitions of the attribute set, builds each
// candidate index over the data, replays the workload, and returns the
// measured costs sorted ascending. dim must be at most 5 (Bell(5) = 52
// candidates; beyond that a heuristic search would be needed, which the
// paper leaves open too).
func Advise(dim int, data []Rect, workload []Rect, pageSize int, opts Options) (Advice, error) {
	if dim < 1 || dim > 5 {
		return Advice{}, fmt.Errorf("rstar: advisor supports 1..5 attributes, got %d", dim)
	}
	var adv Advice
	for _, blocks := range setPartitions(dim) {
		idx, err := NewPartitionedIndex(dim, blocks, pageSize, opts)
		if err != nil {
			return Advice{}, err
		}
		for i, r := range data {
			if err := idx.Add(r, int64(i)); err != nil {
				return Advice{}, err
			}
		}
		var total uint64
		for _, q := range workload {
			_, a, err := idx.Query(q)
			if err != nil {
				return Advice{}, err
			}
			total += a
		}
		adv.Candidates = append(adv.Candidates, PartitionCost{Blocks: blocks, Accesses: total})
	}
	sort.SliceStable(adv.Candidates, func(i, j int) bool {
		return adv.Candidates[i].Accesses < adv.Candidates[j].Accesses
	})
	adv.Best = adv.Candidates[0]
	return adv, nil
}

// setPartitions enumerates all partitions of {0..n-1} via restricted
// growth strings. Blocks and partitions come out in a deterministic
// order, each block sorted.
func setPartitions(n int) [][][]int {
	var out [][][]int
	rgs := make([]int, n)
	var rec func(i, maxUsed int)
	rec = func(i, maxUsed int) {
		if i == n {
			nBlocks := maxUsed + 1
			blocks := make([][]int, nBlocks)
			for d, b := range rgs {
				blocks[b] = append(blocks[b], d)
			}
			cp := make([][]int, nBlocks)
			for k := range blocks {
				cp[k] = append([]int{}, blocks[k]...)
			}
			out = append(out, cp)
			return
		}
		for b := 0; b <= maxUsed+1; b++ {
			rgs[i] = b
			next := maxUsed
			if b > maxUsed {
				next = b
			}
			rec(i+1, next)
		}
	}
	if n > 0 {
		rgs[0] = 0
		rec(1, 0)
	}
	return out
}
