package schemes

import (
	"fmt"
	"strings"
	"testing"

	"slimgraph/internal/graph"
)

// FuzzParseScheme throws arbitrary spec strings at the registry parser. For
// any input Parse accepts, the canonical spec must be a fixpoint:
// Spec(Parse(Spec(Parse(s)))) == Spec(Parse(s)) — the invariant the
// server's variant-cache Keys and both CLIs rely on. Parse must never
// panic, accepted or not.
func FuzzParseScheme(f *testing.F) {
	// Seed corpus: every spec shape used across the tests, examples, and
	// docs — valid, invalid, and pathological.
	for _, seed := range []string{
		"uniform", "uniform:p=0.25", "uniform:p=0.5,seed=99", "uniform:p=x", "uniform:q=0.5",
		"vertexsample", "vertexsample:p=0.75",
		"spectral", "spectral:p=2,variant=avgdeg,reweight=true", "spectral:p=1,variant=logn,reweight=false",
		"tr", "tr:p=0.5,x=2", "tr:p=0.5,x=2,variant=EO", "tr:variant=maxweight",
		"tr-eo", "tr-eo:p=0.8", "tr-ct:p=0.3", "tr-maxweight:p=1", "tr-collapse:p=0.2",
		"tr-eo-redirect:p=0.6",
		"lowdeg", "lowdeg-iter", "lowdeg:p=0.3",
		"spanner", "spanner:k=16,mode=perpair", "spanner:k=8,mode=zz",
		"cut", "cut:rho=3", "cut:rho=auto", "cut:rho=-1",
		"summarize", "summarize:eps=0.2,iters=4",
		"tr-eo:p=0.8|spanner:k=8", "uniform:p=0.7|spectral:p=2|spanner:k=4",
		"uniform:p=0.9|uniform:p=0.9", "tr-collapse:p=1|tr-collapse:p=1",
		"", "|", ":", "a:b", "uniform:", "uniform:p=", "uniform:=0.5", "uniform:p=0.5,",
		"uniform:p=NaN", "uniform:p=+Inf", "uniform:workers=2", "uniform:seed=1|uniform:seed=2",
		"tr:x=3", "tr-eo:x=2", "summarize:iters=0", "spanner:k=0",
		"spectral:p=NaN", "cut:rho=nan", "summarize:eps=NaN", "tr-eo:p=NaN", "uniform:p=0.5,p=0.9",
		"tr:variant=EO,variant=CT", "relabel:order=bfs", "cut:rho=-Inf", "spectral:p=5e-324",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if len(spec) > 1024 {
			return // bound pipeline length, not parser coverage
		}
		s, err := Parse(spec)
		if err != nil {
			return // rejected input; all that matters is no panic
		}
		canonical := Spec(s)
		s2, err := Parse(canonical)
		if err != nil {
			t.Fatalf("canonical spec %q (of accepted %q) does not re-parse: %v", canonical, spec, err)
		}
		if again := Spec(s2); again != canonical {
			t.Fatalf("canonical spec is not a fixpoint: %q -> %q -> %q", spec, canonical, again)
		}
		// NaN is inside no parameter range: it would compare false against
		// every bound, run as whatever the kernel makes of it, and key the
		// variant cache under a spec no other spelling reaches.
		if strings.Contains(strings.ToLower(canonical), "nan") {
			t.Fatalf("accepted %q canonicalises to %q", spec, canonical)
		}
		// Canonical specs of single-stage schemes must not smuggle in
		// pipeline or stage separators beyond what the grammar allows.
		if _, isPipe := s.(*Pipeline); !isPipe && strings.Contains(canonical, "|") {
			t.Fatalf("single scheme %q produced pipeline spec %q", spec, canonical)
		}
	})
}

// FuzzTROrderFree builds a small undirected graph from the fuzzer's bytes —
// a vertex count, a flags byte (weighted, keep probability), a seed, then
// (u, v, weight) triples — and requires every order-sensitive TR variant to
// give Equal outputs at one and three workers: Edge-Once through its claim
// rule, the greedy variants through reference-order emission.
func FuzzTROrderFree(f *testing.F) {
	clique := []byte{5, 3, 1}
	for u := byte(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			clique = append(clique, u, v, u^v)
		}
	}
	f.Add(clique)
	f.Add([]byte{12, 6, 9, 0, 1, 1, 1, 2, 2, 0, 2, 3, 2, 3, 1, 3, 4, 7, 4, 0, 2, 2, 4, 5, 5, 6, 1, 6, 2, 3})
	f.Add([]byte("\x1f\x02\x07 the quick brown fox jumps over the lazy dog, twice: the quick brown fox"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, weighted := 3+int(data[0]%30), data[1]&1 == 1
		p := []float64{0.3, 0.5, 0.8, 1}[data[1]>>1&3]
		seed := uint64(data[2])
		var edges []graph.Edge
		for b := data[3:]; len(b) >= 3 && len(edges) < 400; b = b[3:] {
			edges = append(edges, graph.WE(graph.NodeID(int(b[0])%n), graph.NodeID(int(b[1])%n), 1+float64(b[2]%8)))
		}
		if !weighted {
			for i := range edges {
				edges[i].W = 1
			}
		}
		g := graph.FromEdges(n, false, edges)
		for _, name := range []string{"tr", "tr-eo", "tr-ct", "tr-maxweight", "tr-eo-redirect"} {
			spec := fmt.Sprintf("%s:p=%g", name, p)
			one, three := applySpec(t, g, spec, seed, 1).Output, applySpec(t, g, spec, seed, 3).Output
			if !one.Equal(three) {
				t.Fatalf("%s seed=%d on n=%d m=%d: m=%d at one worker, %d at three; want Equal outputs",
					spec, seed, g.N(), g.M(), one.M(), three.M())
			}
		}
	})
}
