// Package bitset provides plain and atomic bitsets.
//
// The Slim Graph engine marks deleted edges and vertices in atomic bitsets:
// many kernel instances run concurrently and each deletion is a single
// compare-and-swap, which is the "atomic SG.del(e)" of the paper's
// pseudocode (Listing 1). The Edge-Once triangle-reduction variant uses a
// second atomic bitset for its per-edge "considered" flags.
package bitset

import (
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Bits is a fixed-size bitset without synchronization. Use it from a single
// goroutine or behind external synchronization.
type Bits struct {
	words []uint64
	n     int
}

// New returns a bitset holding n bits, all zero.
func New(n int) *Bits {
	return &Bits{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits the set holds.
func (b *Bits) Len() int { return b.n }

// Set sets bit i.
func (b *Bits) Set(i int) { b.words[i/wordBits] |= 1 << (uint(i) % wordBits) }

// Clear clears bit i.
func (b *Bits) Clear(i int) { b.words[i/wordBits] &^= 1 << (uint(i) % wordBits) }

// Get reports whether bit i is set.
func (b *Bits) Get(i int) bool {
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (b *Bits) Count() int {
	c := 0
	for _, w := range b.words {
		c += popcount(w)
	}
	return c
}

// ForEach calls fn with the index of every set bit, ascending.
func (b *Bits) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for ; w != 0; w &= w - 1 {
			fn(wi*wordBits + bits.TrailingZeros64(w))
		}
	}
}

// Reset clears all bits.
func (b *Bits) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Atomic is a fixed-size bitset safe for concurrent use. All operations use
// atomic loads and compare-and-swap; there are no locks.
type Atomic struct {
	words []uint64
	n     int
}

// NewAtomic returns an atomic bitset holding n bits, all zero.
func NewAtomic(n int) *Atomic {
	return &Atomic{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits the set holds.
func (b *Atomic) Len() int { return b.n }

// Set sets bit i. Concurrent calls for any bits are safe.
func (b *Atomic) Set(i int) {
	w := &b.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 || atomic.CompareAndSwapUint64(w, old, old|mask) {
			return
		}
	}
}

// TestAndSet sets bit i and reports whether it was already set. This is the
// primitive behind Edge-Once semantics: exactly one kernel instance observes
// "was not set".
func (b *Atomic) TestAndSet(i int) (wasSet bool) {
	w := &b.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 {
			return true
		}
		if atomic.CompareAndSwapUint64(w, old, old|mask) {
			return false
		}
	}
}

// Clear clears bit i. Concurrent calls for any bits are safe.
func (b *Atomic) Clear(i int) {
	w := &b.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := atomic.LoadUint64(w)
		if old&mask == 0 || atomic.CompareAndSwapUint64(w, old, old&^mask) {
			return
		}
	}
}

// Get reports whether bit i is set.
func (b *Atomic) Get(i int) bool {
	return atomic.LoadUint64(&b.words[i/wordBits])&(1<<(uint(i)%wordBits)) != 0
}

// Bulk word-wise operations. They use plain loads and stores, so they are
// only safe while no concurrent per-bit writers are active — the situation
// between kernel stages, where the engine flips whole deletion sets at once.

// Fill sets every bit.
func (b *Atomic) Fill() {
	if b.n == 0 {
		return
	}
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trimLastWord()
}

// Subtract clears every bit of b that is set in o (b &^= o). Panics if the
// sets have different lengths.
func (b *Atomic) Subtract(o *Atomic) {
	b.sameLen(o)
	for i := range b.words {
		b.words[i] &^= o.words[i]
	}
}

// UnionComplement sets every bit of b that is clear in o (b |= ^o) — the
// "delete everything unmarked" step of keep-set kernels. Panics if the sets
// have different lengths.
func (b *Atomic) UnionComplement(o *Atomic) {
	b.sameLen(o)
	for i := range b.words {
		b.words[i] |= ^o.words[i]
	}
	b.trimLastWord()
}

// Words exposes the backing words (64 bits each, little-endian bit order)
// for word-at-a-time fast paths: rank/pack loops, batch construction.
// Callers own the concurrency discipline — reads require quiescent
// writers, and plain word stores require exclusive ownership of the set.
func (b *Atomic) Words() []uint64 { return b.words }

// trimLastWord zeroes the bits beyond n in the final word so Count stays
// exact after bulk complement-style operations.
func (b *Atomic) trimLastWord() {
	if rem := uint(b.n) % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (uint64(1) << rem) - 1
	}
}

func (b *Atomic) sameLen(o *Atomic) {
	if b.n != o.n {
		panic("bitset: bulk operation over sets of different lengths")
	}
}

// Count returns the number of set bits. It is only exact when no concurrent
// writers are active.
func (b *Atomic) Count() int {
	c := 0
	for i := range b.words {
		c += popcount(atomic.LoadUint64(&b.words[i]))
	}
	return c
}

// Snapshot copies the current contents into a plain bitset.
func (b *Atomic) Snapshot() *Bits {
	s := New(b.n)
	for i := range b.words {
		s.words[i] = atomic.LoadUint64(&b.words[i])
	}
	return s
}

func popcount(x uint64) int { return bits.OnesCount64(x) }
