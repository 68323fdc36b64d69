package rng

import (
	"fmt"
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
	want := []uint64{
		6457827717110365317, 3203168211198807973, 9817491932198370423,
		4593380528125082431, 16408922859458223821,
	}
	s := uint64(1234567)
	for i, w := range want {
		if got := SplitMix64(&s); got != w {
			t.Fatalf("output %d: got %d, want %d", i, got, w)
		}
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

// The first nine outputs of New(seed), recorded from the eager
// implementation that seeded all four state words up front: a lazy seeding
// must reproduce them exactly.
func TestRandKnownValues(t *testing.T) {
	want := map[uint64][9]uint64{
		0: {
			11091344671253066420, 13793997310169335082, 1900383378846508768,
			7684712102626143532, 13521403990117723737, 18442103541295991498,
			7788427924976520344, 9881088229871127103, 15781505947799885617,
		},
		1: {
			12966619160104079557, 9600361134598540522, 10590380919521690900,
			7218738570589545383, 12860671823995680371, 2648436617965840162,
			1310552918490157286, 7031611932980406429, 15996139959407692321,
		},
		77: {
			8103657047149143059, 4186339675336148520, 10722556873450953518,
			17701272810226644525, 8785858499795011532, 3219259391645781394,
			1257376689362882870, 12094175371442013651, 10182325389640084699,
		},
		math.MaxUint64: {
			10328197420357168392, 14156678507024973869, 9357971779955476126,
			13791585006304312367, 10463432026814718762, 13498236496097551653,
			6831296623176769502, 14161350843019729634, 11558284878126271842,
		},
	}
	for seed, w := range want {
		r := New(seed)
		for i, x := range w {
			if got := r.Uint64(); got != x {
				t.Fatalf("New(%d) output %d: got %d, want %d", seed, i, got, x)
			}
		}
	}
}

// drawOp makes draw j after a reseed with one of the methods the kernels
// use, chosen by op, and returns what it drew as one word.
func drawOp(r *Rand, op, j int) uint64 {
	switch op % 6 {
	case 0:
		return r.Uint64()
	case 1:
		return math.Float64bits(r.Float64())
	case 2:
		return uint64(r.Intn(3 + 7*j))
	case 3:
		return math.Float64bits(r.ExpFloat64(1.5))
	case 4:
		var h uint64
		for _, v := range r.Perm(5) {
			h = h*7 + uint64(v)
		}
		return h
	default:
		return r.Split().Uint64()
	}
}

// Reseed restarts a used generator as exactly the stream New returns — the
// kernel loops rely on this to keep one generator per chunk. The loop below
// is theirs: one generator reseeded per element, a few draws each (0, 1, 2,
// 3 or 9) through every method. Each element's draws must match a fresh
// New(seed) making the same ones, and all of them together the digest
// recorded from the eager implementation, so a defect that New shares
// with Reseed still shows.
func TestReseedMatchesNew(t *testing.T) {
	const wantDigest uint64 = 11876956108721128184
	draws := []int{0, 1, 2, 3, 9}
	r := New(1)
	r.Uint64() // leave the previous stream mid-way
	digest := uint64(0xcbf29ce484222325)
	for i := 0; i < 1200; i++ {
		seed := uint64(i) * 0x9e3779b97f4a7c15
		r.Reseed(seed)
		fresh := New(seed)
		for j := 0; j < draws[i%len(draws)]; j++ {
			op := i/len(draws) + j
			x, y := drawOp(r, op, j), drawOp(fresh, op, j)
			if x != y {
				t.Fatalf("element %d draw %d (op %d): reseeded %d, fresh %d", i, j, op%6, x, y)
			}
			digest = (digest ^ x) * 0x100000001b3
		}
	}
	if digest != wantDigest {
		t.Fatalf("digest %d, want %d", digest, wantDigest)
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

// BenchmarkReseed is what a kernel instance pays its generator: a reseed,
// then k draws.
func BenchmarkReseed(b *testing.B) {
	for _, k := range []int{0, 1, 2, 3} {
		b.Run(fmt.Sprintf("draws=%d", k), func(b *testing.B) {
			r := New(1)
			var sink uint64
			for i := 0; i < b.N; i++ {
				r.Reseed(uint64(i))
				for j := 0; j < k; j++ {
					sink ^= r.Uint64()
				}
			}
			sink ^= r.Uint64()
			if sink == 0 {
				b.Log(sink) // keeps the draws observable
			}
		})
	}
}

func BenchmarkHash64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= Hash64(42, uint64(i))
	}
	_ = sink
}
