package rstar

import (
	"math/rand"
	"testing"
)

func TestSetPartitions(t *testing.T) {
	// Bell numbers: 1, 2, 5, 15, 52.
	for n, want := range map[int]int{1: 1, 2: 2, 3: 5, 4: 15, 5: 52} {
		if got := len(setPartitions(n)); got != want {
			t.Errorf("partitions(%d) = %d, want %d", n, got, want)
		}
	}
	// Every partition of 3 covers all dims exactly once.
	for _, blocks := range setPartitions(3) {
		seen := map[int]int{}
		for _, b := range blocks {
			for _, d := range b {
				seen[d]++
			}
		}
		for d := 0; d < 3; d++ {
			if seen[d] != 1 {
				t.Fatalf("partition %v covers dim %d %d times", blocks, d, seen[d])
			}
		}
	}
}

func TestPartitionedIndexValidation(t *testing.T) {
	if _, err := NewPartitionedIndex(2, [][]int{{0}}, 512, Options{}); err == nil {
		t.Error("uncovered dimension accepted")
	}
	if _, err := NewPartitionedIndex(2, [][]int{{0, 1}, {1}}, 512, Options{}); err == nil {
		t.Error("overlapping blocks accepted")
	}
	if _, err := NewPartitionedIndex(2, [][]int{{0, 1}, {}}, 512, Options{}); err == nil {
		t.Error("empty block accepted")
	}
	if _, err := NewPartitionedIndex(2, [][]int{{0, 5}}, 512, Options{}); err == nil {
		t.Error("out-of-range dimension accepted")
	}
	p, err := NewPartitionedIndex(2, [][]int{{0, 1}}, 512, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Add(Rect1(0, 1), 0); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, _, err := p.Query(Rect1(0, 1)); err == nil {
		t.Error("query dim mismatch accepted")
	}
}

// TestPartitionedIndexMatchesStrategies: the one-block partition must
// behave exactly like JointIndex and the all-singletons partition like
// SeparateIndex (results and access counts).
func TestPartitionedIndexMatchesStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var rects []Rect
	for i := 0; i < 1200; i++ {
		rects = append(rects, randRect(rng, 2, 3000, 100))
	}
	joint, _ := NewJointIndex(2, 512, Options{})
	sep, _ := NewSeparateIndex(2, 512, Options{})
	asJoint, _ := NewPartitionedIndex(2, [][]int{{0, 1}}, 512, Options{})
	asSep, _ := NewPartitionedIndex(2, [][]int{{0}, {1}}, 512, Options{})
	for i, r := range rects {
		for _, ix := range []Index{joint, sep, asJoint, asSep} {
			if err := ix.Add(r, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	queries := []Rect{
		Rect2(100, 100, 500, 500),
		UnboundedQuery(2, map[int][2]float64{0: {0, 400}}),
		UnboundedQuery(2, nil),
	}
	for qi, q := range queries {
		idsJ, aj, _ := joint.Query(q)
		idsPJ, apj, err := asJoint.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(idsJ) != len(idsPJ) || aj != apj {
			t.Errorf("query %d: joint (%d ids, %d acc) vs partition{01} (%d ids, %d acc)",
				qi, len(idsJ), aj, len(idsPJ), apj)
		}
		idsS, as, _ := sep.Query(q)
		idsPS, aps, err := asSep.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(idsS) != len(idsPS) || as != aps {
			t.Errorf("query %d: separate (%d ids, %d acc) vs partition{0}{1} (%d ids, %d acc)",
				qi, len(idsS), as, len(idsPS), aps)
		}
	}
}

// TestAdviseRecoversPaperResults: the advisor must pick the joint
// partition for a two-attribute workload and the separate partition for a
// one-attribute workload — the two §5.4 findings, now derived instead of
// asserted.
func TestAdviseRecoversPaperResults(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var data []Rect
	for i := 0; i < 1500; i++ {
		data = append(data, randRect(rng, 2, 3000, 100))
	}
	var twoAttr, oneAttr []Rect
	for i := 0; i < 40; i++ {
		twoAttr = append(twoAttr, randRect(rng, 2, 3000, 100))
		lo := rng.Float64() * 2900
		oneAttr = append(oneAttr, UnboundedQuery(2, map[int][2]float64{0: {lo, lo + 100}}))
	}
	advTwo, err := Advise(2, data, twoAttr, 512, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(advTwo.Best.Blocks) != 1 {
		t.Errorf("two-attr workload: best = %s, want the joint partition (candidates %v)",
			advTwo.Best, advTwo.Candidates)
	}
	advOne, err := Advise(2, data, oneAttr, 512, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(advOne.Best.Blocks) != 2 {
		t.Errorf("one-attr workload: best = %s, want singletons", advOne.Best)
	}
}

// TestAdviseThreeAttributes: with a third never-queried attribute, the
// best partition must not pay for indexing it jointly with the queried
// pair.
func TestAdviseThreeAttributes(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	var data []Rect
	for i := 0; i < 800; i++ {
		data = append(data, randRect(rng, 3, 3000, 100))
	}
	// Queries restrict dims 0 and 1 together; dim 2 never.
	var workload []Rect
	for i := 0; i < 30; i++ {
		lo0, lo1 := rng.Float64()*2900, rng.Float64()*2900
		workload = append(workload, UnboundedQuery(3, map[int][2]float64{
			0: {lo0, lo0 + 100}, 1: {lo1, lo1 + 100}}))
	}
	adv, err := Advise(3, data, workload, 512, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Best partition must contain the block {0,1} (dim 2 anywhere else).
	has01 := false
	for _, b := range adv.Best.Blocks {
		if len(b) == 2 && b[0] == 0 && b[1] == 1 {
			has01 = true
		}
	}
	if !has01 {
		t.Errorf("best partition %s does not group the co-queried attributes (candidates: %v)",
			adv.Best, adv.Candidates)
	}
	if adv.Best.String() == "" {
		t.Error("empty partition rendering")
	}
}

func TestAdviseValidation(t *testing.T) {
	if _, err := Advise(6, nil, nil, 512, Options{}); err == nil {
		t.Error("dim 6 accepted")
	}
	if _, err := Advise(0, nil, nil, 512, Options{}); err == nil {
		t.Error("dim 0 accepted")
	}
}

// Blocks returns the attribute partition. The result must not be mutated.
func (p *PartitionedIndex) Blocks() [][]int { return p.blocks }
