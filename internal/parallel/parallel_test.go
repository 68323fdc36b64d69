package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 0} {
		for _, n := range []int{0, 1, 63, 64, 65, 1000, 10000} {
			hits := make([]int32, n)
			For(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForChunksDisjointCover(t *testing.T) {
	const n = 12345
	hits := make([]int32, n)
	ForChunks(n, 8, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d, %d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestForWorkerIndexInRange(t *testing.T) {
	const n = 10000
	const workers = 4
	var bad int32
	ForWorker(n, workers, func(w, lo, hi int) {
		if w < 0 || w >= workers {
			atomic.AddInt32(&bad, 1)
		}
	})
	if bad != 0 {
		t.Fatalf("%d chunks saw an out-of-range worker index", bad)
	}
}

func TestForSingleWorkerIsOrdered(t *testing.T) {
	const n = 1000
	var order []int
	For(n, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if i != v {
			t.Fatalf("sequential run out of order at %d: %d", i, v)
		}
	}
}

func TestSumInt64(t *testing.T) {
	const n = 100000
	got := SumInt64(n, 8, func(i int) int64 { return int64(i) })
	want := int64(n) * (n - 1) / 2
	if got != want {
		t.Fatalf("SumInt64 = %d, want %d", got, want)
	}
}

func TestSumInt64MatchesSequentialProperty(t *testing.T) {
	f := func(vals []int32) bool {
		var want int64
		for _, v := range vals {
			want += int64(v)
		}
		got := SumInt64(len(vals), 4, func(i int) int64 { return int64(vals[i]) })
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	called := false
	For(0, 4, func(i int) { called = true })
	For(-5, 4, func(i int) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
}

func TestForBlocksExactPartition(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000, 12345} {
		for _, blocks := range []int{1, 2, 3, 8, 16} {
			hits := make([]int32, n)
			seen := make([]int32, blocks)
			ForBlocks(n, blocks, 4, func(b, lo, hi int) {
				atomic.AddInt32(&seen[b], 1)
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d blocks=%d index %d hit %d times", n, blocks, i, h)
				}
			}
			for b, s := range seen {
				if s > 1 {
					t.Fatalf("n=%d blocks=%d block %d ran %d times", n, blocks, b, s)
				}
			}
		}
	}
}

func TestHistogramMatchesSerial(t *testing.T) {
	const n, bins = 25000, 37
	key := func(i int) int { return (i * 7919) % bins }
	want := make([]int64, bins)
	for i := 0; i < n; i++ {
		want[key(i)]++
	}
	for _, workers := range []int{1, 2, 8, 0} {
		got := Histogram(n, bins, workers, key)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("workers=%d bin %d: got %d want %d", workers, k, got[k], want[k])
			}
		}
	}
}

func TestExclusiveScan(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1000, 1 << 15, 100000} {
		for _, workers := range []int{1, 3, 8, 0} {
			counts := make([]int64, n)
			want := make([]int64, n)
			var run int64
			for i := range counts {
				counts[i] = int64((i*31 + 7) % 11)
				want[i] = run
				run += counts[i]
			}
			total := ExclusiveScan(counts, workers)
			if total != run {
				t.Fatalf("n=%d workers=%d total %d want %d", n, workers, total, run)
			}
			for i := range want {
				if counts[i] != want[i] {
					t.Fatalf("n=%d workers=%d scan[%d] = %d, want %d", n, workers, i, counts[i], want[i])
				}
			}
		}
	}
}

// CountingScatter must equal a serial stable counting sort bit-for-bit, for
// every worker count.
func TestCountingScatterStableDeterministic(t *testing.T) {
	const n, bins = 30000, 101
	key := func(i int) int { return (i * 6151) % bins }
	// Serial reference.
	want := make([]int64, n)
	{
		starts := make([]int64, bins+1)
		for i := 0; i < n; i++ {
			starts[key(i)+1]++
		}
		for k := 0; k < bins; k++ {
			starts[k+1] += starts[k]
		}
		for i := 0; i < n; i++ {
			k := key(i)
			want[i] = starts[k]
			starts[k]++
		}
	}
	for _, workers := range []int{1, 2, 5, 16, 0} {
		got := make([]int64, n)
		offsets := CountingScatter(n, bins, workers, key, func(i int, pos int64) { got[i] = pos })
		if offsets[0] != 0 || offsets[bins] != n {
			t.Fatalf("workers=%d offsets endpoints [%d, %d]", workers, offsets[0], offsets[bins])
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d item %d placed at %d, want %d", workers, i, got[i], want[i])
			}
		}
		for k := 0; k < bins; k++ {
			if offsets[k] > offsets[k+1] {
				t.Fatalf("workers=%d decreasing offsets at bucket %d", workers, k)
			}
		}
	}
}

func TestCountingScatterEmpty(t *testing.T) {
	offsets := CountingScatter(0, 5, 4, nil, nil)
	if len(offsets) != 6 || offsets[5] != 0 {
		t.Fatalf("empty scatter offsets %v", offsets)
	}
}

func TestPackStable(t *testing.T) {
	const n = 12347
	keep := func(i int) bool { return i%3 != 1 }
	var wantPos []int
	for i := 0; i < n; i++ {
		if keep(i) {
			wantPos = append(wantPos, i)
		}
	}
	for _, workers := range []int{1, 2, 8, 0} {
		got := make([]int, 0, len(wantPos))
		packed := make([]int, len(wantPos))
		total := Pack(n, workers, keep, func(i int, pos int64) { packed[pos] = i })
		if int(total) != len(wantPos) {
			t.Fatalf("workers=%d total %d want %d", workers, total, len(wantPos))
		}
		got = append(got, packed...)
		for j := range wantPos {
			if got[j] != wantPos[j] {
				t.Fatalf("workers=%d slot %d = %d, want %d", workers, j, got[j], wantPos[j])
			}
		}
	}
}

func BenchmarkForOverhead(b *testing.B) {
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += SumInt64(1<<16, 0, func(j int) int64 { return int64(j & 1) })
	}
	_ = sink
}

func prefixOf(weights []int64) []int64 {
	prefix := make([]int64, len(weights)+1)
	for i, w := range weights {
		prefix[i+1] = prefix[i] + w
	}
	return prefix
}

func TestForBalancedCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 0} {
		for _, n := range []int{0, 1, 2, 63, 1000, 10000} {
			weights := make([]int64, n)
			for i := range weights {
				// Skewed: a few huge items among unit items.
				weights[i] = 1
				if i%97 == 0 {
					weights[i] = 5000
				}
			}
			hits := make([]int32, n)
			ForBalancedWorker(n, workers, prefixOf(weights), func(_, lo, hi int) {
				// Errorf, not Fatalf: the body runs on worker goroutines.
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("bad range [%d, %d) for n=%d", lo, hi, n)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForBalancedZeroAndAllZeroWeights(t *testing.T) {
	// Zero-weight tails and an all-zero prefix must still visit every item.
	for _, weights := range [][]int64{
		{0, 0, 0, 0, 0},
		{10, 0, 0, 0, 0},
		{0, 0, 0, 0, 10},
		{0, 7, 0, 7, 0},
	} {
		n := len(weights)
		for _, workers := range []int{1, 3, 8} {
			hits := make([]int32, n)
			ForBalancedWorker(n, workers, prefixOf(weights), func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("weights=%v workers=%d: index %d visited %d times", weights, workers, i, h)
				}
			}
		}
	}
}

func TestForBalancedSplitsHeavyRuns(t *testing.T) {
	// With one dominant item the balanced partition must still give other
	// workers disjoint work: ranges are contiguous, disjoint, and the heavy
	// item's range does not swallow everything when weights justify cuts.
	const n = 4096
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = 1
	}
	weights[0] = 1 << 20
	var ranges int64
	ForBalancedWorker(n, 4, prefixOf(weights), func(_, lo, hi int) {
		atomic.AddInt64(&ranges, 1)
	})
	if ranges < 2 {
		t.Fatalf("expected the non-heavy tail to be split off, got %d range(s)", ranges)
	}
}

func TestForBalancedWorkerIndexInRange(t *testing.T) {
	const n = 10000
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = int64(i % 13)
	}
	for _, workers := range []int{1, 2, 7} {
		ForBalancedWorker(n, workers, prefixOf(weights), func(w, lo, hi int) {
			if w < 0 || w >= workers {
				t.Errorf("worker index %d out of [0, %d)", w, workers)
			}
		})
	}
}

func TestForBalancedPrefixLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for short prefix")
		}
	}()
	ForBalancedWorker(5, 2, make([]int64, 5), func(_, lo, hi int) {})
}

// TestBalancedCutTiles: for any part count — including one no shard count
// could justify, on weights whose product with it overflows 64 bits — the
// cuts are monotone from 0 to n, and a sub-slice of the prefix array cuts
// the sub-range it spans exactly as a prefix rebuilt from its weights does.
func TestBalancedCutTiles(t *testing.T) {
	weights := []int64{1 << 40, 1, 0, 1 << 41, 7, 0, 0, 1 << 39, 3}
	prefix := prefixOf(weights)
	n := len(weights)
	for _, parts := range []int{1, 2, 3, n, n + 1, 1000, 1<<31 - 1} {
		if BalancedCut(prefix, 0, parts) != 0 || BalancedCut(prefix, parts, parts) != n {
			t.Fatalf("%d parts: cuts do not span [0, %d]", parts, n)
		}
		probes := []int{1, 2, parts / 3, parts / 2, parts - 2, parts - 1}
		prev := 0
		for _, g := range probes {
			if g < 1 || g >= parts {
				continue
			}
			cut := BalancedCut(prefix, g, parts)
			if cut < prev || cut > n {
				t.Fatalf("%d parts: cut(%d) = %d after %d", parts, g, cut, prev)
			}
			prev = cut
		}
	}
	for lo := 0; lo <= n; lo++ {
		for hi := lo; hi <= n; hi++ {
			rebuilt := prefixOf(weights[lo:hi])
			for g := 0; g <= 4; g++ {
				if got, want := BalancedCut(prefix[lo:hi+1], g, 4), BalancedCut(rebuilt, g, 4); got != want {
					t.Fatalf("items [%d, %d) cut %d of 4: %d on the sub-slice, %d rebuilt", lo, hi, g, got, want)
				}
			}
		}
	}
	if got := Share(1<<62, 1<<31-2, 1<<31-1); got != (1<<62)/(1<<31-1)*(1<<31-2)+((1<<62)%(1<<31-1))*(1<<31-2)/(1<<31-1) {
		t.Fatalf("Share(2^62, 2^31-2, 2^31-1) = %d", got)
	}
}
