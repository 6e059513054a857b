package constraint

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file implements the memoized satisfiability engine: a sharded,
// mutex-guarded, bounded-LRU cache of satisfiability decisions keyed by the
// canonical-form fingerprint (canon.go). It is the CQA/CDB answer to the
// cost profile of re-proving the same satisfiability questions on every
// operator invocation: the closure principle makes every operator emit
// finite sets of constraint tuples, and across a query plan (or a repeated
// workload) the same conjunctions recur constantly — joins re-check the
// same tuple pairs, difference re-checks the same staircase disjuncts,
// normalisation re-checks operator outputs.
//
// One cache holds two kinds of entry. A single entry answers "is this
// conjunction satisfiable" under the conjunction's own fingerprint
// (Satisfiable). A pair entry answers "is a ∧ b satisfiable, and what is
// its canonical form" under a mix of the two *input* fingerprints
// (SatisfiablePair): join and intersect ask it before they build anything,
// so a remembered pair costs no Merge and no Canon — building the key used
// to cost more than the hit it reached. Both kinds share the shards, the
// LRU, the capacity and the counters.
//
// Concurrency: the cache is safe for concurrent use from the exec worker
// pool. Lookups and inserts take only a per-shard mutex; the Fourier-
// Motzkin run for a miss happens outside any lock, so parallel workers
// never serialise on the eliminator. Two workers racing on the same miss
// both compute (identical, side-effect-free results) and both store —
// idempotent, and cheaper than holding a lock across elimination.
//
// Exactness: entries are keyed by fingerprint but store the interned
// canonical atoms — of the conjunction, or of both inputs of a pair — and
// every hit verifies them with equalAtoms. A fingerprint collision,
// between two entries of one kind or across kinds, therefore can never
// return a wrong answer — it is counted and treated as a miss (the
// colliding entry is replaced).

// DefaultSatCacheSize is the entry bound used when NewSatCache is given a
// non-positive capacity.
const DefaultSatCacheSize = 4096

const satCacheShards = 16 // power of two; shard = key low bits

// SatCache is a bounded, sharded LRU memo of satisfiability decisions.
// The zero value is not usable; construct with NewSatCache.
type SatCache struct {
	shards [satCacheShards]satShard

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	collisions atomic.Int64

	// rekey, when non-nil, maps every entry key (keyOf). It is nil
	// everywhere but in the collision tests, which force distinct questions
	// onto one key.
	rekey func(uint64) uint64
}

type satShard struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]*satEntry
	// Intrusive LRU list: front = most recent.
	front, back *satEntry
}

// satEntry is one memoized decision. A single entry holds the interned
// canonical atoms of its conjunction in cs; a pair entry (pair set) holds
// the canonical atoms of the two inputs in cs and cs2 and, when the pair is
// satisfiable, the finished canonical merge. The atoms are what a lookup
// verifies exactly on a key match.
type satEntry struct {
	key        uint64
	cs, cs2    []Constraint
	pair       bool
	sat        bool
	merged     Conjunction
	prev, next *satEntry
}

// matches reports whether e answers the question q asks (same kind, same
// atoms).
func (e *satEntry) matches(q *satEntry) bool {
	return e.pair == q.pair && equalAtoms(e.cs, q.cs) && equalAtoms(e.cs2, q.cs2)
}

// NewSatCache returns a cache bounded to roughly capacity entries
// (non-positive = DefaultSatCacheSize), spread over the shards.
func NewSatCache(capacity int) *SatCache {
	if capacity <= 0 {
		capacity = DefaultSatCacheSize
	}
	per := capacity / satCacheShards
	if per < 1 {
		per = 1
	}
	c := &SatCache{}
	for i := range c.shards {
		c.shards[i].cap = per
		c.shards[i].entries = make(map[uint64]*satEntry, per)
	}
	return c
}

// Satisfiable decides j through the memo: canonicalise, look up the
// fingerprint, and only on a miss run the Fourier-Motzkin eliminator. The
// second result reports whether the answer came from the cache. The nil
// cache is the no-cache path: it runs the eliminator on j and never hits.
func (c *SatCache) Satisfiable(j Conjunction) (sat, hit bool) {
	if c == nil {
		return j.IsSatisfiable(), false
	}
	cj := j.Canon()
	q := satEntry{key: c.keyOf(cj.fp), cs: cj.cs}
	if _, sat, ok := c.lookup(&q); ok {
		return sat, true
	}
	// Miss: decide outside the lock so parallel workers never serialise on
	// the eliminator, then store. Racing computations of the same question
	// are idempotent.
	q.sat = cj.IsSatisfiable()
	c.store(q)
	return q.sat, false
}

// SatisfiablePair decides a ∧ b through the memo and returns its canonical
// form, a.Merge(b).Canon(), when it is satisfiable (merged is meaningless
// otherwise). The question is looked up under a mix of the two input
// fingerprints before anything is built: a remembered unsatisfiable pair
// costs no Merge, a remembered satisfiable one hands back the stored merge
// — the same Conjunction value every time, so its memoised envelope and
// vector form are shared by every result tuple built from it. A miss merges,
// canonicalises, decides on the canonical form (Canon's fold roughly halves
// the atoms the eliminator sees) and stores all of it. (a, b) and (b, a) are
// different questions. One call is one hit or one miss. The inputs are
// expected canonical, as operator outputs and loaded relations are: one that
// is not is canonicalised on every call, which costs what the hit saves.
// The nil cache merges, canonicalises and decides every pair, and never
// hits.
func (c *SatCache) SatisfiablePair(a, b Conjunction) (merged Conjunction, sat, hit bool) {
	if c == nil {
		merged = a.Merge(b).Canon()
		return merged, merged.IsSatisfiable(), false
	}
	ca, cb := a.Canon(), b.Canon()
	q := satEntry{key: c.keyOf(pairKey(ca.fp, cb.fp)), cs: ca.cs, cs2: cb.cs, pair: true}
	if merged, sat, ok := c.lookup(&q); ok {
		return merged, sat, true
	}
	merged = a.Merge(b).Canon()
	if q.sat = merged.IsSatisfiable(); q.sat {
		q.merged = merged
	}
	c.store(q)
	return merged, q.sat, false
}

// pairKey mixes two input fingerprints into a pair entry's key. It is not
// symmetric, and the multiply-shift rounds spread the result over the low
// bits that pick the shard.
func pairKey(a, b uint64) uint64 {
	h := a * 0x9e3779b97f4a7c15
	h ^= h >> 32
	h = (h ^ b) * 0xff51afd7ed558ccd
	return h ^ h>>33
}

// keyOf is the entry key for a fingerprint or a pair mix: k itself, outside
// the collision tests.
func (c *SatCache) keyOf(k uint64) uint64 {
	if c.rekey != nil {
		return c.rekey(k)
	}
	return k
}

// lookup finds the entry that answers q and returns its verdict (and merge,
// for a pair), counting the hit — or the collision, when q's key holds a
// different question.
func (c *SatCache) lookup(q *satEntry) (merged Conjunction, sat, ok bool) {
	s := &c.shards[q.key&(satCacheShards-1)]
	s.mu.Lock()
	if e, ok := s.entries[q.key]; ok {
		if e.matches(q) {
			s.moveToFront(e)
			merged, sat = e.merged, e.sat
			s.mu.Unlock()
			c.hits.Add(1)
			return merged, sat, true
		}
		c.collisions.Add(1)
	}
	s.mu.Unlock()
	return Conjunction{}, false, false
}

// store counts the miss that decided q and records it, evicting the shard's
// least recently used entry when that overfills it.
func (c *SatCache) store(q satEntry) {
	c.misses.Add(1)
	s := &c.shards[q.key&(satCacheShards-1)]
	s.mu.Lock()
	if e, ok := s.entries[q.key]; ok {
		// Raced insert or collision replacement: refresh in place.
		e.cs, e.cs2, e.pair, e.sat, e.merged = q.cs, q.cs2, q.pair, q.sat, q.merged
		s.moveToFront(e)
	} else {
		e := &q
		s.entries[e.key] = e
		s.pushFront(e)
		if len(s.entries) > s.cap {
			victim := s.back
			s.unlink(victim)
			delete(s.entries, victim.key)
			c.evictions.Add(1)
		}
	}
	s.mu.Unlock()
}

// CacheStats is a point-in-time snapshot of a SatCache's counters.
type CacheStats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	Collisions int64 // fingerprint collisions detected (exactness guard)
	Entries    int   // current resident entries across all shards
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func (s CacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d (%.1f%% hit rate) evictions=%d collisions=%d entries=%d",
		s.Hits, s.Misses, 100*s.HitRate(), s.Evictions, s.Collisions, s.Entries)
}

// Stats returns a snapshot of the cache counters. Nil-safe (zero stats).
func (c *SatCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Evictions:  c.evictions.Load(),
		Collisions: c.collisions.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.entries)
		s.mu.Unlock()
	}
	return st
}

// --- intrusive LRU list (shard mutex held) ---

func (s *satShard) pushFront(e *satEntry) {
	e.prev, e.next = nil, s.front
	if s.front != nil {
		s.front.prev = e
	}
	s.front = e
	if s.back == nil {
		s.back = e
	}
}

func (s *satShard) unlink(e *satEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.back = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *satShard) moveToFront(e *satEntry) {
	if s.front == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// equalAtoms compares two canonical atom slices structurally. Two slices
// over one backing array are the same atoms: a session asks about the same
// stored tuples again and again, so that is the common hit.
func equalAtoms(a, b []Constraint) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) > 0 && &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i].Op != b[i].Op || !a[i].Expr.Equal(b[i].Expr) {
			return false
		}
	}
	return true
}
