package rstar

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"cdb/internal/storage"
)

// Options tune the tree. The zero value selects the Beckmann et al.
// defaults.
type Options struct {
	// MinFill is m/M, the minimum node fill ratio. Default 0.4 (the R*
	// paper's recommendation).
	MinFill float64
	// ReinsertFrac is the fraction of entries removed by forced
	// reinsertion on overflow. Default 0.3 (the R* paper's p = 30%).
	ReinsertFrac float64
	// DisableReinsert turns forced reinsertion off (overflow always
	// splits). This degrades the tree towards a plain R-tree and exists
	// for the DESIGN.md ablation benchmark.
	DisableReinsert bool
}

// Tree is an R*-tree over a Pager. One node occupies exactly one page, so
// the pager's read counter is the paper's "number of disk accesses".
type Tree struct {
	pager  storage.Pager
	dim    int
	opts   Options
	meta   storage.PageID // metadata page
	root   storage.PageID
	height int // number of levels; leaves are level 0
	size   int // number of data entries
	maxE   int
	minE   int
}

// New creates an empty R*-tree of the given dimension on the pager.
func New(pager storage.Pager, dim int, opts Options) (*Tree, error) {
	if dim < 1 || dim > 16 {
		return nil, fmt.Errorf("rstar: unsupported dimension %d", dim)
	}
	if opts.MinFill <= 0 || opts.MinFill > 0.5 {
		opts.MinFill = 0.4
	}
	if opts.ReinsertFrac <= 0 || opts.ReinsertFrac >= 0.5 {
		opts.ReinsertFrac = 0.3
	}
	maxE := maxEntries(pager.PageSize(), dim)
	if maxE < 4 {
		return nil, fmt.Errorf("rstar: page size %d too small for dimension %d", pager.PageSize(), dim)
	}
	minE := int(float64(maxE) * opts.MinFill)
	if minE < 1 {
		minE = 1
	}
	t := &Tree{pager: pager, dim: dim, opts: opts, maxE: maxE, minE: minE, height: 1}
	metaID, err := pager.Allocate()
	if err != nil {
		return nil, err
	}
	t.meta = metaID
	rootID, err := pager.Allocate()
	if err != nil {
		return nil, err
	}
	t.root = rootID
	if err := t.store(&node{id: rootID, leaf: true}); err != nil {
		return nil, err
	}
	return t, t.saveMeta()
}

// Open reopens a tree previously created with New on a persistent pager,
// given its metadata page id.
func Open(pager storage.Pager, metaPage storage.PageID) (*Tree, error) {
	buf := make([]byte, pager.PageSize())
	if err := pager.Read(metaPage, buf); err != nil {
		return nil, err
	}
	if string(buf[0:4]) != "RST1" {
		return nil, fmt.Errorf("rstar: page %d is not a tree metadata page", metaPage)
	}
	t := &Tree{pager: pager, meta: metaPage}
	t.dim = int(binary.LittleEndian.Uint32(buf[4:8]))
	t.root = storage.PageID(binary.LittleEndian.Uint32(buf[8:12]))
	t.height = int(binary.LittleEndian.Uint32(buf[12:16]))
	t.size = int(binary.LittleEndian.Uint64(buf[16:24]))
	t.opts.MinFill = math.Float64frombits(binary.LittleEndian.Uint64(buf[24:32]))
	t.opts.ReinsertFrac = math.Float64frombits(binary.LittleEndian.Uint64(buf[32:40]))
	t.opts.DisableReinsert = buf[40] == 1
	t.maxE = maxEntries(pager.PageSize(), t.dim)
	t.minE = int(float64(t.maxE) * t.opts.MinFill)
	if t.minE < 1 {
		t.minE = 1
	}
	return t, nil
}

func (t *Tree) saveMeta() error {
	buf := make([]byte, t.pager.PageSize())
	copy(buf[0:4], "RST1")
	binary.LittleEndian.PutUint32(buf[4:8], uint32(t.dim))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(t.root))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(t.height))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(t.size))
	binary.LittleEndian.PutUint64(buf[24:32], math.Float64bits(t.opts.MinFill))
	binary.LittleEndian.PutUint64(buf[32:40], math.Float64bits(t.opts.ReinsertFrac))
	if t.opts.DisableReinsert {
		buf[40] = 1
	}
	return t.pager.Write(&storage.Page{ID: t.meta, Data: buf})
}

// MetaPage returns the metadata page id (pass to Open to reopen).
func (t *Tree) MetaPage() storage.PageID { return t.meta }

// Dim returns the tree's dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of data entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a single leaf).
func (t *Tree) Height() int { return t.height }

// MaxEntries returns the node capacity M.
func (t *Tree) MaxEntries() int { return t.maxE }

func (t *Tree) load(id storage.PageID) (*node, error) {
	buf := make([]byte, t.pager.PageSize())
	if err := t.pager.Read(id, buf); err != nil {
		return nil, err
	}
	return decodeNode(id, buf, t.dim)
}

func (t *Tree) store(n *node) error {
	buf, err := encodeNode(n, t.pager.PageSize(), t.dim)
	if err != nil {
		return err
	}
	return t.pager.Write(&storage.Page{ID: n.id, Data: buf})
}

// Insert adds a rectangle with an opaque data id.
func (t *Tree) Insert(r Rect, data int64) error {
	if r.Dim() != t.dim {
		return fmt.Errorf("rstar: inserting %d-dim rect into %d-dim tree", r.Dim(), t.dim)
	}
	overflowed := map[int]bool{}
	if err := t.insertEntry(entry{rect: r, data: data}, 0, overflowed); err != nil {
		return err
	}
	t.size++
	return t.saveMeta()
}

// insertEntry inserts an entry at the given level (0 = leaf).
func (t *Tree) insertEntry(e entry, level int, overflowed map[int]bool) error {
	path, nodes, err := t.choosePath(e.rect, level)
	if err != nil {
		return err
	}
	n := nodes[len(nodes)-1]
	n.entries = append(n.entries, e)
	return t.handleOverflowAndAdjust(path, nodes, level, overflowed)
}

// choosePath descends ChooseSubtree from the root to the target level,
// returning the page-id path and loaded nodes (root first).
func (t *Tree) choosePath(r Rect, level int) ([]storage.PageID, []*node, error) {
	var path []storage.PageID
	var nodes []*node
	id := t.root
	depth := 0
	for {
		n, err := t.load(id)
		if err != nil {
			return nil, nil, err
		}
		path = append(path, id)
		nodes = append(nodes, n)
		nodeLevel := t.height - 1 - depth
		if nodeLevel == level {
			return path, nodes, nil
		}
		if n.leaf {
			return nil, nil, fmt.Errorf("rstar: reached leaf above target level %d", level)
		}
		childLevel := nodeLevel - 1
		idx := t.chooseSubtree(n, r, childLevel == 0)
		id = n.entries[idx].child
		depth++
	}
}

// chooseSubtree picks the entry of n to descend into for rectangle r.
// When the children are leaves, R* minimises overlap enlargement; higher
// up it minimises area enlargement (ties: smaller area).
func (t *Tree) chooseSubtree(n *node, r Rect, childrenAreLeaves bool) int {
	best := 0
	if childrenAreLeaves {
		bestOverlap, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
		for i, e := range n.entries {
			enlarged := e.rect.Union(r)
			var before, after float64
			for j, o := range n.entries {
				if j == i {
					continue
				}
				before += e.rect.OverlapArea(o.rect)
				after += enlarged.OverlapArea(o.rect)
			}
			dOverlap := after - before
			enl := e.rect.Enlargement(r)
			area := e.rect.Area()
			if dOverlap < bestOverlap ||
				(dOverlap == bestOverlap && (enl < bestEnl ||
					(enl == bestEnl && area < bestArea))) {
				best, bestOverlap, bestEnl, bestArea = i, dOverlap, enl, area
			}
		}
		return best
	}
	bestEnl, bestArea := math.Inf(1), math.Inf(1)
	for i, e := range n.entries {
		enl := e.rect.Enlargement(r)
		area := e.rect.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// handleOverflowAndAdjust stores the modified tail node, resolving
// overflow by forced reinsertion or split, and adjusts MBRs up the path.
func (t *Tree) handleOverflowAndAdjust(path []storage.PageID, nodes []*node, level int, overflowed map[int]bool) error {
	// Walk from the tail upwards.
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		lvl := t.height - 1 - i
		if len(n.entries) <= t.maxE {
			if err := t.store(n); err != nil {
				return err
			}
			t.adjustMBR(nodes, i)
			continue
		}
		// Overflow treatment.
		isRoot := i == 0
		if !isRoot && !t.opts.DisableReinsert && !overflowed[lvl] {
			overflowed[lvl] = true
			return t.reinsert(path, nodes, i, lvl, overflowed)
		}
		left, right, err := t.split(n)
		if err != nil {
			return err
		}
		if isRoot {
			// Grow a new root.
			newRootID, err := t.pager.Allocate()
			if err != nil {
				return err
			}
			root := &node{id: newRootID, leaf: false, entries: []entry{
				{rect: left.mbr(), child: left.id},
				{rect: right.mbr(), child: right.id},
			}}
			if err := t.store(root); err != nil {
				return err
			}
			t.root = newRootID
			t.height++
			return t.saveMeta()
		}
		parent := nodes[i-1]
		// Replace the child entry with the two halves.
		idx := indexOfChild(parent, n.id)
		if idx < 0 {
			return fmt.Errorf("rstar: parent lost child %d", n.id)
		}
		parent.entries[idx] = entry{rect: left.mbr(), child: left.id}
		parent.entries = append(parent.entries, entry{rect: right.mbr(), child: right.id})
		// Loop continues with the parent (which may itself overflow).
	}
	return nil
}

// adjustMBR updates the parent entry's rectangle for nodes[i].
func (t *Tree) adjustMBR(nodes []*node, i int) {
	if i == 0 {
		return
	}
	parent, child := nodes[i-1], nodes[i]
	if idx := indexOfChild(parent, child.id); idx >= 0 && len(child.entries) > 0 {
		parent.entries[idx].rect = child.mbr()
	}
}

func indexOfChild(parent *node, id storage.PageID) int {
	for i, e := range parent.entries {
		if e.child == id {
			return i
		}
	}
	return -1
}

// reinsert implements R* forced reinsertion: remove the p⋅M entries whose
// centers are farthest from the node MBR's center, shrink the node, then
// insert them again at the same level (far-first ordering).
func (t *Tree) reinsert(path []storage.PageID, nodes []*node, i, lvl int, overflowed map[int]bool) error {
	n := nodes[i]
	p := int(float64(t.maxE) * t.opts.ReinsertFrac)
	if p < 1 {
		p = 1
	}
	center := n.mbr().Center()
	sort.SliceStable(n.entries, func(a, b int) bool {
		return centerSqDistTo(n.entries[a].rect, center) > centerSqDistTo(n.entries[b].rect, center)
	})
	removed := append([]entry{}, n.entries[:p]...)
	n.entries = append([]entry{}, n.entries[p:]...)
	if err := t.store(n); err != nil {
		return err
	}
	// Tighten MBRs up the path.
	for j := i; j >= 1; j-- {
		t.adjustMBR(nodes, j)
		if err := t.store(nodes[j-1]); err != nil {
			return err
		}
	}
	for _, e := range removed {
		if err := t.insertEntry(e, lvl, overflowed); err != nil {
			return err
		}
	}
	return nil
}

func centerSqDistTo(r Rect, c []float64) float64 {
	rc := r.Center()
	d := 0.0
	for i := range c {
		d += (rc[i] - c[i]) * (rc[i] - c[i])
	}
	return d
}

// split implements R* ChooseSplitAxis / ChooseSplitIndex. It reuses n's
// page for the left node and allocates a new page for the right node.
func (t *Tree) split(n *node) (*node, *node, error) {
	entries := n.entries
	m := t.minE
	type distribution struct {
		axis, k int
		margin  float64
	}
	bestAxis, bestMargin := 0, math.Inf(1)
	// ChooseSplitAxis: minimise total margin over all distributions.
	for axis := 0; axis < t.dim; axis++ {
		sorted := sortByAxis(entries, axis)
		total := 0.0
		for k := m; k <= len(sorted)-m; k++ {
			l := mbrOf(sorted[:k])
			r := mbrOf(sorted[k:])
			total += l.Margin() + r.Margin()
		}
		if total < bestMargin {
			bestMargin, bestAxis = total, axis
		}
	}
	// ChooseSplitIndex: minimise overlap, ties by combined area.
	sorted := sortByAxis(entries, bestAxis)
	bestK, bestOverlap, bestArea := m, math.Inf(1), math.Inf(1)
	for k := m; k <= len(sorted)-m; k++ {
		l := mbrOf(sorted[:k])
		r := mbrOf(sorted[k:])
		ov := l.OverlapArea(r)
		area := l.Area() + r.Area()
		if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestK, bestOverlap, bestArea = k, ov, area
		}
	}
	rightID, err := t.pager.Allocate()
	if err != nil {
		return nil, nil, err
	}
	left := &node{id: n.id, leaf: n.leaf, entries: append([]entry{}, sorted[:bestK]...)}
	right := &node{id: rightID, leaf: n.leaf, entries: append([]entry{}, sorted[bestK:]...)}
	if err := t.store(left); err != nil {
		return nil, nil, err
	}
	if err := t.store(right); err != nil {
		return nil, nil, err
	}
	return left, right, nil
}

// sortByAxis returns the entries sorted by (min, max) along the axis.
func sortByAxis(entries []entry, axis int) []entry {
	out := append([]entry{}, entries...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].rect.Min[axis] != out[j].rect.Min[axis] {
			return out[i].rect.Min[axis] < out[j].rect.Min[axis]
		}
		return out[i].rect.Max[axis] < out[j].rect.Max[axis]
	})
	return out
}

func mbrOf(entries []entry) Rect {
	r := entries[0].rect
	for _, e := range entries[1:] {
		r = r.Union(e.rect)
	}
	return r
}

// Search returns the data ids of all entries whose rectangles intersect
// the query. Every node visited costs one page read on the pager — the
// experiments read the disk-access count off the pager's stats.
func (t *Tree) Search(query Rect) ([]int64, error) {
	if query.Dim() != t.dim {
		return nil, fmt.Errorf("rstar: %d-dim query on %d-dim tree", query.Dim(), t.dim)
	}
	var out []int64
	err := t.walk(t.root, query, func(e entry) {
		out = append(out, e.data)
	})
	return out, err
}

func (t *Tree) walk(id storage.PageID, query Rect, emit func(entry)) error {
	n, err := t.load(id)
	if err != nil {
		return err
	}
	for _, e := range n.entries {
		if !e.rect.Intersects(query) {
			continue
		}
		if n.leaf {
			emit(e)
		} else if err := t.walk(e.child, query, emit); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes one entry matching (rect, data) exactly. It returns false
// when no such entry exists. Underfull nodes are condensed: their entries
// are reinserted at the appropriate level, per the classic R-tree delete.
func (t *Tree) Delete(r Rect, data int64) (bool, error) {
	leafID, path, nodes, err := t.findLeaf(t.root, nil, nil, r, data, t.height-1)
	if err != nil || leafID == 0 {
		return false, err
	}
	leaf := nodes[len(nodes)-1]
	for i, e := range leaf.entries {
		if e.data == data && rectEqual(e.rect, r) {
			leaf.entries = append(leaf.entries[:i], leaf.entries[i+1:]...)
			break
		}
	}
	if err := t.condense(path, nodes); err != nil {
		return false, err
	}
	t.size--
	// Shrink the root when it is internal with a single child.
	for {
		root, err := t.load(t.root)
		if err != nil {
			return false, err
		}
		if root.leaf || len(root.entries) != 1 {
			break
		}
		old := t.root
		t.root = root.entries[0].child
		t.height--
		if err := t.pager.Free(old); err != nil {
			return false, err
		}
	}
	return true, t.saveMeta()
}

// findLeaf locates the leaf containing (r, data); returns a zero leaf id
// when absent.
func (t *Tree) findLeaf(id storage.PageID, path []storage.PageID, nodes []*node, r Rect, data int64, lvl int) (storage.PageID, []storage.PageID, []*node, error) {
	n, err := t.load(id)
	if err != nil {
		return 0, nil, nil, err
	}
	path = append(path, id)
	nodes = append(nodes, n)
	if n.leaf {
		for _, e := range n.entries {
			if e.data == data && rectEqual(e.rect, r) {
				return id, path, nodes, nil
			}
		}
		return 0, nil, nil, nil
	}
	for _, e := range n.entries {
		if e.rect.Contains(r) {
			leafID, p2, n2, err := t.findLeaf(e.child, path, nodes, r, data, lvl-1)
			if err != nil {
				return 0, nil, nil, err
			}
			if leafID != 0 {
				return leafID, p2, n2, nil
			}
		}
	}
	return 0, nil, nil, nil
}

func rectEqual(a, b Rect) bool {
	for i := range a.Min {
		if a.Min[i] != b.Min[i] || a.Max[i] != b.Max[i] {
			return false
		}
	}
	return true
}

// condense removes underfull nodes along the path bottom-up and reinserts
// their orphaned entries at the right level.
func (t *Tree) condense(path []storage.PageID, nodes []*node) error {
	type orphan struct {
		e   entry
		lvl int
	}
	var orphans []orphan
	for i := len(nodes) - 1; i >= 1; i-- {
		n := nodes[i]
		lvl := t.height - 1 - i
		parent := nodes[i-1]
		idx := indexOfChild(parent, n.id)
		if len(n.entries) < t.minE {
			for _, e := range n.entries {
				orphans = append(orphans, orphan{e: e, lvl: lvl})
			}
			parent.entries = append(parent.entries[:idx], parent.entries[idx+1:]...)
			if err := t.pager.Free(n.id); err != nil {
				return err
			}
		} else {
			if err := t.store(n); err != nil {
				return err
			}
			if len(n.entries) > 0 && idx >= 0 {
				parent.entries[idx].rect = n.mbr()
			}
		}
	}
	if err := t.store(nodes[0]); err != nil {
		return err
	}
	for _, o := range orphans {
		if err := t.insertEntry(o.e, o.lvl, map[int]bool{}); err != nil {
			return err
		}
	}
	return nil
}
