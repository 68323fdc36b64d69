package slimgraph_test

import (
	"bytes"
	"math"
	"os"
	"sync"
	"testing"

	"slimgraph"
)

// compress applies the registry spec to g with the given seed (and the
// default worker count), failing the test or benchmark on any error.
func compress(tb testing.TB, g *slimgraph.Graph, spec string, seed uint64) *slimgraph.Result {
	tb.Helper()
	s, err := slimgraph.ParseScheme(spec, slimgraph.WithSeed(seed))
	if err != nil {
		tb.Fatal(err)
	}
	res, err := s.Apply(g)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestEndToEndPipeline exercises the full paper pipeline through the public
// API: generate, compress with several schemes, run stage-2 algorithms,
// evaluate with the accuracy metrics.
func TestEndToEndPipeline(t *testing.T) {
	g := slimgraph.GenerateRMAT(10, 8, 1)
	if g.N() != 1024 {
		t.Fatalf("n = %d", g.N())
	}
	origPR := slimgraph.PageRank(g, 0)
	origCC := slimgraph.ComponentCount(g)
	origT := slimgraph.TriangleCount(g, 0)

	uni := compress(t, g, "uniform:p=0.5", 7)
	if uni.Output.M() >= g.M() {
		t.Fatal("uniform did not compress")
	}
	kl := slimgraph.KLDivergence(origPR, slimgraph.PageRank(uni.Output, 0))
	if kl <= 0 || math.IsInf(kl, 1) {
		t.Fatalf("KL = %v", kl)
	}

	eo := compress(t, g, "tr-eo:p=0.5", 7)
	if cc := slimgraph.ComponentCount(eo.Output); cc != origCC {
		t.Fatalf("EO TR changed #CC: %d -> %d", origCC, cc)
	}

	sp := compress(t, g, "spanner:k=8", 7)
	if cc := slimgraph.ComponentCount(sp.Output); cc != origCC {
		t.Fatalf("spanner changed #CC: %d -> %d", origCC, cc)
	}
	ret := slimgraph.BFSCriticalRetention(g, sp.Output, []slimgraph.NodeID{0, 100}, 0)
	if ret <= 0 || ret > 1 {
		t.Fatalf("retention %v", ret)
	}

	if newT := slimgraph.TriangleCount(uni.Output, 0); newT >= origT {
		t.Fatalf("uniform sampling did not reduce triangles: %d -> %d", origT, newT)
	}
}

func TestCustomKernelThroughPublicAPI(t *testing.T) {
	// The programming model: a custom edge kernel that removes edges
	// between two low-degree endpoints.
	g := slimgraph.GenerateBarabasiAlbert(2000, 3, 5)
	sg := slimgraph.NewSG(g, 42, 0)
	sg.RunEdgeKernel(func(sg *slimgraph.SG, r *slimgraph.Rand, e slimgraph.EdgeView) {
		if e.DegU+e.DegV < 8 && r.Float64() < 0.9 {
			sg.Del(e.ID)
		}
	})
	out := sg.Materialize()
	if out.M() >= g.M() {
		t.Fatal("custom kernel removed nothing")
	}
	// High-degree hub edges must be untouched.
	hubEdges := 0
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(slimgraph.EdgeID(e))
		if g.Degree(u)+g.Degree(v) >= 8 {
			hubEdges++
			if !out.HasEdge(u, v) {
				t.Fatal("kernel deleted an out-of-scope edge")
			}
		}
	}
	if hubEdges == 0 {
		t.Fatal("degenerate test graph")
	}
}

// The test-lowpair scheme is registered once per process — the registry
// refuses a second registration of a name — so that the test below passes
// under -count=N; each run resets lowPairArgs, what its kernel last received.
var (
	lowPairOnce sync.Once
	lowPairArgs kernelArgs
)

type kernelArgs struct {
	seed    uint64
	workers int
	p       float64
	hard    bool
}

func registerLowPair() {
	got := &lowPairArgs
	slimgraph.RegisterScheme(slimgraph.SchemeInfo{
		Name:  "test-lowpair",
		About: "drop edges between two low-degree endpoints w.p. p (test only)",
		Params: []slimgraph.SchemeParam{
			{Key: "p", Kind: slimgraph.ParamFloat, Default: "0.9", Min: 0, Max: 1},
			{Key: "hard", Kind: slimgraph.ParamBool, Default: "false"},
		},
		Apply: func(g slimgraph.AdjacencyEdges, a slimgraph.SchemeArgs) (*slimgraph.Result, error) {
			got.seed, got.workers, got.p, got.hard = a.Seed, a.Workers, a.Float("p"), a.Bool("hard")
			p := a.Float("p")
			sg := slimgraph.NewSG(g, a.Seed, a.Workers)
			sg.RunEdgeKernel(func(sg *slimgraph.SG, r *slimgraph.Rand, e slimgraph.EdgeView) {
				if e.DegU+e.DegV < 8 && r.Float64() < p {
					sg.Del(e.ID)
				}
			})
			return &slimgraph.Result{Output: sg.Materialize()}, nil
		},
	})
}

// TestRegisteredKernelReceivesItsArguments: a scheme registered from outside
// internal/schemes — a kernel plus a parameter table — is handed the seed,
// the worker budget and its declared parameter, already parsed, checked and
// defaulted, and is a first-class registry name: canonical spec, Result
// labels, pipelines and table-driven errors included.
func TestRegisteredKernelReceivesItsArguments(t *testing.T) {
	lowPairOnce.Do(registerLowPair)
	lowPairArgs = kernelArgs{}
	got := &lowPairArgs
	g := slimgraph.GenerateBarabasiAlbert(2000, 3, 5)
	s, err := slimgraph.ParseScheme("test-lowpair:p=0.3", slimgraph.WithSeed(7), slimgraph.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if spec := slimgraph.SchemeSpec(s); spec != "test-lowpair:p=0.3,hard=false" {
		t.Fatalf("canonical spec %q", spec)
	}
	res, err := s.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if got.seed != 7 || got.workers != 2 || got.p != 0.3 || got.hard {
		t.Fatalf("kernel received %+v, want seed 7, workers 2, p 0.3, hard false", got)
	}
	if res.Scheme != "test-lowpair" || res.Params != "p=0.3,hard=false" || res.Input != g || res.Elapsed <= 0 {
		t.Fatalf("registry did not stamp the Result: %s(%s), elapsed %v", res.Scheme, res.Params, res.Elapsed)
	}
	if res.Output.M() >= g.M() {
		t.Fatal("registered kernel removed nothing")
	}
	if _, err := slimgraph.ParseScheme("test-lowpair"); err != nil { // defaults
		t.Fatal(err)
	}
	if _, err := slimgraph.ParseScheme("test-lowpair:hard=true|lowdeg"); err != nil { // pipelines
		t.Fatal(err)
	}
	for _, bad := range []string{"test-lowpair:p=1.5", "test-lowpair:p=NaN", "test-lowpair:k=3", "test-lowpair:p=0.1,p=0.2"} {
		if _, err := slimgraph.ParseScheme(bad); err == nil {
			t.Errorf("ParseScheme(%q): expected the table to refuse it", bad)
		}
	}
}

func TestSummarizeRoundTripPublicAPI(t *testing.T) {
	g := slimgraph.GenerateCommunities(300, 30, 0.7, 100, 3)
	s := slimgraph.Summarize(g, slimgraph.SummarizeOptions{Iterations: 6, Seed: 1})
	dec := s.Decode()
	if dec.M() != g.M() {
		t.Fatalf("lossless summary decode: m %d -> %d", g.M(), dec.M())
	}
	if s.CompressionRatio() >= 1 {
		t.Fatalf("no storage reduction: %v", s.CompressionRatio())
	}
}

func TestIORoundTripPublicAPI(t *testing.T) {
	g := slimgraph.WithUniformWeights(slimgraph.GenerateGrid(10, 10, true), 1, 9, 2)
	var buf bytes.Buffer
	n, err := slimgraph.WriteBinary(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if n != slimgraph.BinarySize(g) {
		t.Fatal("size mismatch")
	}
	h, err := slimgraph.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.M() != g.M() || h.TotalWeight() != g.TotalWeight() {
		t.Fatal("round trip mismatch")
	}
}

func TestWeightedPipelineMSTPreserved(t *testing.T) {
	g := slimgraph.WithUniformWeights(slimgraph.GenerateCommunities(200, 20, 0.6, 100, 4), 1, 50, 5)
	before := slimgraph.MSTWeight(g)
	res := compress(t, g, "tr-maxweight:p=1,workers=1", 6)
	after := slimgraph.MSTWeight(res.Output)
	if math.Abs(before-after) > 1e-9 {
		t.Fatalf("MST weight %v -> %v", before, after)
	}
}

func TestAlgorithmSuiteSmoke(t *testing.T) {
	g := slimgraph.GenerateSmallWorld(500, 6, 0.1, 7)
	if d := slimgraph.Diameter(g, 0); d <= 0 {
		t.Fatalf("diameter %d", d)
	}
	dist, parents := slimgraph.Dijkstra(g, 0)
	if dist[0] != 0 || parents[0] != 0 {
		t.Fatal("Dijkstra root broken")
	}
	ds := slimgraph.DeltaStepping(g, 0, 0, 0)
	for v := range dist {
		if math.Abs(dist[v]-ds[v]) > 1e-9 {
			t.Fatalf("SSSP mismatch at %d", v)
		}
	}
	if c := slimgraph.ColoringNumber(g); c < 2 {
		t.Fatalf("coloring number %d", c)
	}
	if m := slimgraph.MatchingSize(g); m == 0 {
		t.Fatal("empty matching")
	}
	if s := slimgraph.IndependentSetSize(g); s == 0 {
		t.Fatal("empty independent set")
	}
	bc := slimgraph.Betweenness(g, 0)
	if len(bc) != g.N() {
		t.Fatal("bc length")
	}
	dd := slimgraph.DegreeDistribution(g)
	slope, _ := slimgraph.PowerLawSlope(dd)
	_ = slope
	labels := slimgraph.ConnectedComponents(g)
	if len(labels) != g.N() {
		t.Fatal("labels length")
	}
}

func TestDistributedPublicAPI(t *testing.T) {
	g := slimgraph.GenerateRMAT(10, 8, 9)
	ranges := slimgraph.PartitionByDegree(g, 4)
	if len(ranges) != 4 || int(ranges[3].Hi) != g.N() {
		t.Fatalf("partition %+v", ranges)
	}
}

func TestReorderedPairsPublicAPI(t *testing.T) {
	g := slimgraph.GenerateRMAT(9, 8, 11)
	orig := slimgraph.PageRank(g, 0)
	comp := slimgraph.PageRank(compress(t, g, "uniform:p=0.5", 3).Output, 0)
	frac := slimgraph.ReorderedPairs(orig, comp)
	if frac <= 0 || frac >= 0.5 {
		t.Fatalf("reordered fraction %v", frac)
	}
	nfrac := slimgraph.ReorderedNeighborPairs(g, orig, comp)
	if nfrac < 0 || nfrac > 1 {
		t.Fatalf("neighbor fraction %v", nfrac)
	}
	js := slimgraph.JensenShannon(orig, comp)
	if js <= 0 || js > 1 {
		t.Fatalf("JS %v", js)
	}
}

func TestTriangleEngineAPI(t *testing.T) {
	g := slimgraph.GenerateRMAT(9, 8, 7)
	en := slimgraph.NewTriangleEngine(g, 0)
	want := slimgraph.TriangleCount(g, 0)
	if got := en.Count(); got != want {
		t.Fatalf("engine Count = %d, wrapper %d", got, want)
	}
	pe := slimgraph.TrianglesPerEdge(g, 0)
	var sum int64
	for _, c := range pe {
		sum += c
	}
	if sum != 3*want {
		t.Fatalf("per-edge sum %d, want %d", sum, 3*want)
	}
	if got := slimgraph.TriangleCountApprox(g, 1, 1, 0); got != float64(want) {
		t.Fatalf("p=1 approx %v != exact %d", got, want)
	}
}

func TestServablePublicAPI(t *testing.T) {
	g := slimgraph.GenerateRMAT(9, 8, 5)
	pg := slimgraph.PackGraph(g, 0)

	var buf bytes.Buffer
	n, err := slimgraph.WriteServable(&buf, pg)
	if err != nil {
		t.Fatal(err)
	}
	if n != slimgraph.ServableSize(pg) || int64(buf.Len()) != n {
		t.Fatalf("wrote %d bytes, ServableSize %d, buffer %d", n, slimgraph.ServableSize(pg), buf.Len())
	}
	if !slimgraph.IsServable(buf.Bytes()) {
		t.Fatal("IsServable rejects a fresh image")
	}

	att, err := slimgraph.AttachServable(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if att.N() != g.N() || att.M() != g.M() {
		t.Fatalf("attached identity %d/%d, want %d/%d", att.N(), att.M(), g.N(), g.M())
	}
	if got, want := slimgraph.BFS(att, 0, 0), slimgraph.BFS(g, 0, 0); got.Reached() != want.Reached() {
		t.Fatalf("BFS over attached image reached %d, raw %d", got.Reached(), want.Reached())
	}

	path := t.TempDir() + "/g.sgp"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := slimgraph.StatServable(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.N != g.N() || info.M != g.M() || info.Bytes != n {
		t.Fatalf("StatServable = %+v", info)
	}
	m, err := slimgraph.OpenServable(path)
	if err != nil {
		t.Fatal(err)
	}
	release, err := m.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != g.N() || m.M() != g.M() {
		t.Fatalf("mapped identity %d/%d, want %d/%d", m.N(), m.M(), g.N(), g.M())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Unmapped() {
		t.Fatal("unmapped while a reader held the mapping")
	}
	release()
	if !m.Unmapped() {
		t.Fatal("last release did not unmap")
	}
}
