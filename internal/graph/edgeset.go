package graph

import (
	"slimgraph/internal/bitset"
	"slimgraph/internal/parallel"
)

// EdgeSet is a dense set of canonical EdgeIDs backed by an atomic bitset.
// It is the stage-1 mark container of the compression engine: kernels
// running on many goroutines Add (or TestAndAdd) concurrently, and the
// stage-2 materialization streams the set through the rebuild-free CSR
// transforms (FilterEdgeSet) in a tight branch-free loop.
//
// Per-bit operations (Add, Remove, Contains, TestAndAdd) are safe for
// concurrent use. The bulk set operations (Fill, Subtract, UnionComplement,
// Complement) use plain word stores and must only run while no concurrent
// per-bit writers are active — the engine calls them between kernel stages.
type EdgeSet struct {
	bits *bitset.Atomic
}

// NewEdgeSet returns an empty set over the EdgeID universe [0, m).
func NewEdgeSet(m int) *EdgeSet { return &EdgeSet{bits: bitset.NewAtomic(m)} }

// Len returns the size of the EdgeID universe (not the member count).
func (s *EdgeSet) Len() int { return s.bits.Len() }

// Add inserts e. Concurrent calls are safe.
func (s *EdgeSet) Add(e EdgeID) { s.bits.Set(int(e)) }

// Remove deletes e. Concurrent calls are safe.
func (s *EdgeSet) Remove(e EdgeID) { s.bits.Clear(int(e)) }

// Contains reports whether e is in the set.
func (s *EdgeSet) Contains(e EdgeID) bool { return s.bits.Get(int(e)) }

// TestAndAdd inserts e and reports whether it was already present; exactly
// one concurrent caller observes false — the Edge-Once primitive.
func (s *EdgeSet) TestAndAdd(e EdgeID) (wasPresent bool) { return s.bits.TestAndSet(int(e)) }

// Count returns the number of members. Exact only while no concurrent
// writers are active.
func (s *EdgeSet) Count() int { return s.bits.Count() }

// Fill inserts every EdgeID of the universe. Bulk operation: requires
// writer quiescence.
func (s *EdgeSet) Fill() { s.bits.Fill() }

// Subtract removes every member of o from s (s &^= o). Bulk operation:
// requires writer quiescence and equal universe sizes.
func (s *EdgeSet) Subtract(o *EdgeSet) { s.bits.Subtract(o.bits) }

// UnionComplement inserts every EdgeID absent from o (s |= ^o) — it turns a
// keep-set into the matching deletion marks in one word-wise pass. Bulk
// operation: requires writer quiescence and equal universe sizes.
func (s *EdgeSet) UnionComplement(o *EdgeSet) { s.bits.UnionComplement(o.bits) }

// AddBatch evaluates pred once per EdgeID in the universe and inserts the
// members with whole-word stores — an order of magnitude cheaper than
// per-bit Add when a predicate covers the full universe. Bulk operation:
// the caller must own the set exclusively (no concurrent per-bit writers).
func (s *EdgeSet) AddBatch(workers int, pred func(e EdgeID) bool) {
	words := s.bits.Words()
	n := s.Len()
	parallel.ForChunks(len(words), workers, func(wlo, whi int) {
		for wi := wlo; wi < whi; wi++ {
			base := wi * 64
			limit := 64
			if base+limit > n {
				limit = n - base
			}
			var w uint64
			for b := 0; b < limit; b++ {
				if pred(EdgeID(base + b)) {
					w |= 1 << uint(b)
				}
			}
			words[wi] |= w
		}
	})
}

// words exposes the backing bitset words to the package-internal rank/pack
// fast paths (FilterEdgeSet). Read-only; requires writer quiescence.
func (s *EdgeSet) words() []uint64 { return s.bits.Words() }
