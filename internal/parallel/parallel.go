// Package parallel provides the shared-memory execution substrate of the
// Slim Graph engine: chunked parallel loops and reductions over index
// ranges.
//
// The paper's engine "executes compression kernels in parallel" (§3.2); this
// package supplies that machinery so kernels and graph algorithms stay free
// of goroutine plumbing. Work is split into contiguous chunks that workers
// claim with an atomic counter, which balances irregular per-element cost
// (skewed degrees) without per-element overhead.
package parallel

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the worker count used when a caller passes
// workers <= 0: the number of usable CPUs.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Resolve returns the worker count For/ForChunks/ForWorker actually use for
// a loop of length n: workers <= 0 becomes DefaultWorkers, then the count is
// clamped into [1, n]. Callers that allocate per-worker state indexed by the
// worker ID passed to ForWorker must size it with Resolve, not
// DefaultWorkers.
func Resolve(workers, n int) int { return normalize(workers, n) }

// normalize clamps the worker count into [1, n] with n the loop length, so
// tiny loops do not spawn idle goroutines.
func normalize(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// chunkSize picks a grain that gives each worker several chunks to steal,
// amortizing the atomic fetch-add while keeping load balanced.
func chunkSize(n, workers int) int {
	c := n / (workers * 8)
	if c < 64 {
		c = 64
	}
	return c
}

// For runs body(i) for every i in [0, n) using the given number of workers
// (<= 0 means DefaultWorkers). With workers == 1 the loop runs inline on the
// calling goroutine, giving bitwise-deterministic execution order.
func For(n, workers int, body func(i int)) {
	ForChunks(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunks runs body(lo, hi) over disjoint chunks covering [0, n). A body
// invocation owns the half-open range [lo, hi). With workers == 1 it runs
// inline as a single chunk.
func ForChunks(n, workers int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = normalize(workers, n)
	if workers == 1 {
		body(0, n)
		return
	}
	chunk := chunkSize(n, workers)
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&next, int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				body(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// ForWorker runs body(worker, lo, hi) like ForChunks but also passes the
// worker index, so callers can maintain per-worker state (RNG streams,
// scratch buffers, partial histograms) without synchronization.
func ForWorker(n, workers int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = normalize(workers, n)
	if workers == 1 {
		body(0, 0, n)
		return
	}
	chunk := chunkSize(n, workers)
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&next, int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				body(w, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}

// ForBalancedWorker runs body(worker, lo, hi) over contiguous ranges
// covering [0, n), cutting the range where the prefix-summed work is equal
// rather than where the index is: prefix must have length n+1 with
// prefix[i]-prefix[0] = total weight of items [0, i) (nondecreasing, as
// produced by ExclusiveScan plus the total; a sub-slice of such an array
// balances the sub-range it spans). Workers claim ~16 near-equal-work grains
// each, so a handful of heavy items (hub vertices, dense rows) no longer
// serialize one chunk. Each item is visited exactly once; zero-weight items
// ride along with the range that contains them. With workers == 1 the whole
// range runs inline as one body call in index order.
//
// The claiming worker's index lets callers keep per-worker accumulators
// without synchronization. Grain boundaries depend only on (n, prefix,
// workers); which worker claims which grain does not, so per-worker state
// must be merged order-independently (sums, sets) for worker-count-independent
// results.
func ForBalancedWorker(n, workers int, prefix []int64, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if len(prefix) != n+1 {
		panic("parallel: ForBalancedWorker prefix must have length n+1")
	}
	workers = normalize(workers, n)
	if workers == 1 {
		body(0, 0, n)
		return
	}
	if prefix[n] <= prefix[0] {
		// No weight information: fall back to index chunking.
		ForWorker(n, workers, body)
		return
	}
	grains := workers * 16
	if grains > n {
		grains = n
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				g := int(atomic.AddInt64(&next, 1)) - 1
				if g >= grains {
					return
				}
				lo, hi := BalancedCut(prefix, g, grains), BalancedCut(prefix, g+1, grains)
				if lo < hi {
					body(w, lo, hi)
				}
			}
		}(w)
	}
	wg.Wait()
}

// BalancedCut returns where part g begins when the n = len(prefix)-1 items
// of a ForBalancedWorker prefix array are cut into parts of equal work: the first
// index whose prefix reaches g/parts of the total. BalancedCut(prefix, 0,
// parts) = 0 and BalancedCut(prefix, parts, parts) = n, so the ranges
// [cut(g), cut(g+1)) tile [0, n) for every parts >= 1 — more parts than
// items just leaves some of them empty.
func BalancedCut(prefix []int64, g, parts int) int {
	n := len(prefix) - 1
	if g <= 0 {
		return 0
	}
	if g >= parts {
		return n
	}
	target := prefix[0] + Share(prefix[n]-prefix[0], g, parts)
	return sort.Search(n, func(i int) bool { return prefix[i] >= target })
}

// Share returns ⌊total·g/parts⌋ for total >= 0 and 0 <= g <= parts, the
// weight that parts [0, g) of a balanced split own. The product is taken in
// 128 bits: a part count that arrives from outside the process (a cluster
// sub-request's `of`) cannot overflow it into a cut that runs backwards.
func Share(total int64, g, parts int) int64 {
	hi, lo := bits.Mul64(uint64(total), uint64(g))
	q, _ := bits.Div64(hi, lo, uint64(parts))
	return int64(q)
}

// Blocks returns the block count used by the block-deterministic primitives
// (Histogram, ExclusiveScan, CountingScatter) for a loop of length n:
// Resolve(workers, n) capped so per-block bookkeeping of width bins stays
// small. The cap keeps CountingScatter's blocks×bins cursor matrix bounded
// even for vertex-count-sized bins.
func Blocks(n, bins, workers int) int {
	b := normalize(workers, n)
	if bins > 0 {
		const maxCursorCells = 1 << 24
		if limit := maxCursorCells / bins; b > limit {
			b = limit
		}
	}
	if b < 1 {
		b = 1
	}
	return b
}

// BlockRange returns the half-open range of block b when [0, n) is split
// into blocks nearly-equal contiguous blocks.
func BlockRange(n, blocks, b int) (lo, hi int) {
	return b * n / blocks, (b + 1) * n / blocks
}

// ForBlocks runs body(b, lo, hi) for every block of an exact blocks-way
// contiguous partition of [0, n), in parallel. Unlike ForChunks the
// partition is fixed by (n, blocks) alone, so per-block state indexed by b
// is deterministic across runs and worker counts.
func ForBlocks(n, blocks, workers int, body func(b, lo, hi int)) {
	if n <= 0 || blocks <= 0 {
		return
	}
	ForChunks(blocks, normalize(workers, blocks), func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := BlockRange(n, blocks, b)
			if lo < hi {
				body(b, lo, hi)
			}
		}
	})
}

// Histogram counts items of [0, n) into bins buckets: item i lands in bucket
// key(i), which must be in [0, bins). Per-block partial histograms are merged
// bucket-parallel, so no atomics run on the hot path.
func Histogram(n, bins, workers int, key func(i int) int) []int64 {
	counts := make([]int64, bins)
	if n <= 0 || bins <= 0 {
		return counts
	}
	blocks := Blocks(n, bins, workers)
	if blocks == 1 {
		for i := 0; i < n; i++ {
			counts[key(i)]++
		}
		return counts
	}
	partial := make([]int64, blocks*bins)
	ForBlocks(n, blocks, workers, func(b, lo, hi int) {
		local := partial[b*bins : (b+1)*bins]
		for i := lo; i < hi; i++ {
			local[key(i)]++
		}
	})
	ForChunks(bins, workers, func(klo, khi int) {
		for k := klo; k < khi; k++ {
			var s int64
			for b := 0; b < blocks; b++ {
				s += partial[b*bins+k]
			}
			counts[k] = s
		}
	})
	return counts
}

// ExclusiveScan replaces counts[i] with the sum of counts[:i] in place and
// returns the total — the offsets step of every counting-sort construction.
// Three passes for large inputs (block sums, serial scan of block sums,
// block-local rescan); serial below a grain where the passes cost more than
// they save.
func ExclusiveScan(counts []int64, workers int) int64 {
	n := len(counts)
	if n == 0 {
		return 0
	}
	workers = normalize(workers, n)
	const serialGrain = 1 << 14
	if workers == 1 || n < serialGrain {
		var run int64
		for i := range counts {
			run, counts[i] = run+counts[i], run
		}
		return run
	}
	blocks := Blocks(n, 0, workers)
	sums := make([]int64, blocks)
	ForBlocks(n, blocks, workers, func(b, lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += counts[i]
		}
		sums[b] = s
	})
	var run int64
	for b := range sums {
		run, sums[b] = run+sums[b], run
	}
	ForBlocks(n, blocks, workers, func(b, lo, hi int) {
		local := sums[b]
		for i := lo; i < hi; i++ {
			local, counts[i] = local+counts[i], local
		}
	})
	return run
}

// CountingScatter stably scatters n items into bins buckets. key(i) gives
// item i's bucket (in [0, bins)); place(i, pos) receives each item's final
// position. Items of one bucket keep their input order and positions depend
// only on (n, bins, key) — never on workers — so scatters are bit-identical
// across worker counts, which the engine's reproducibility contract
// requires. It returns the bucket offsets: exclusive prefix sums of bucket
// sizes, length bins+1.
//
// This is the per-worker-cursor scheme of parallel counting sort: each block
// histograms its range, ScanCursors turns per-block counts into per-block
// starting cursors, and each block rescans its range placing items at its
// own cursors — two passes over the input, no atomics, no comparison sort.
func CountingScatter(n, bins, workers int, key func(i int) int, place func(i int, pos int64)) []int64 {
	if n <= 0 || bins <= 0 {
		return make([]int64, bins+1)
	}
	blocks := Blocks(n, bins, workers)
	cursor := make([]int64, blocks*bins)
	ForBlocks(n, blocks, workers, func(b, lo, hi int) {
		local := cursor[b*bins : (b+1)*bins]
		for i := lo; i < hi; i++ {
			local[key(i)]++
		}
	})
	offsets := ScanCursors(cursor, blocks, bins, workers)
	ForBlocks(n, blocks, workers, func(b, lo, hi int) {
		local := cursor[b*bins : (b+1)*bins]
		for i := lo; i < hi; i++ {
			k := key(i)
			place(i, local[k])
			local[k]++
		}
	})
	return offsets
}

// ScanCursors is the middle pass of a blocked counting scatter, for callers
// that run its two item passes themselves. cursor is a blocks×bins matrix
// whose row b counts the items of block b per bucket (the blocks of
// ForBlocks over the items, in order); ScanCursors rewrites each entry in
// place as the position block b's first bucket-k item goes to, and returns
// the bucket offsets (length bins+1, the last one the item count). Blocks
// that then place their items in input order at their own cursors,
// advancing them, give every item the position a serial stable scatter
// would, at every block count.
func ScanCursors(cursor []int64, blocks, bins, workers int) []int64 {
	offsets := make([]int64, bins+1)
	// Column-wise scan: cursor[b][k] becomes the number of bucket-k items in
	// blocks before b; offsets[k] holds bucket k's size.
	ForChunks(bins, workers, func(klo, khi int) {
		for k := klo; k < khi; k++ {
			var run int64
			for b := 0; b < blocks; b++ {
				c := &cursor[b*bins+k]
				run, *c = run+*c, run
			}
			offsets[k] = run
		}
	})
	offsets[bins] = ExclusiveScan(offsets[:bins], workers)
	ForChunks(blocks, workers, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			row := cursor[b*bins : (b+1)*bins]
			for k, start := range offsets[:bins] {
				row[k] += start
			}
		}
	})
	return offsets
}

// SumInt64 reduces body over [0, n) by summation. Each chunk accumulates
// locally; only per-chunk partial sums touch the shared accumulator.
func SumInt64(n, workers int, body func(i int) int64) int64 {
	var total int64
	ForChunks(n, workers, func(lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			local += body(i)
		}
		atomic.AddInt64(&total, local)
	})
	return total
}
