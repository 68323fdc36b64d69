package succinct_test

// Acceptance pins of the storage subsystem at evaluation scale, run by CI
// (skipped under -short): the packed v2 snapshot is >= 3x smaller than the
// fixed-width binary snapshot on the Graph500-parameter R-MAT graph
// (n = 2^17, m ~ 1.86M) and on a preferential-attachment graph, with the
// round trip verified bit-for-bit.

import (
	"bytes"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/graphio"
	"slimgraph/internal/succinct"
)

func checkRatio(t *testing.T, name string, g *graph.Graph, want float64) {
	t.Helper()
	var buf bytes.Buffer
	packed, err := graphio.WritePacked(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	bin := graphio.BinarySize(g)
	ratio := float64(bin) / float64(packed)
	t.Logf("%s: n=%d m=%d binary=%d packed=%d ratio=%.2fx (%.1f bits/edge on disk, %.1f in memory)",
		name, g.N(), g.M(), bin, packed, ratio,
		float64(packed)*8/float64(g.M()), succinct.Pack(g, 0).BitsPerEdge())
	if ratio < want {
		t.Fatalf("%s: packed:binary ratio %.2fx below the %.1fx acceptance bar", name, ratio, want)
	}
	h, err := graphio.ReadPacked(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Equal(g) {
		t.Fatalf("%s: packed round trip not bit-identical", name)
	}
}

func TestPackedRatioAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation-scale graphs; skipped with -short")
	}
	checkRatio(t, "rmat-17-16", gen.RMAT(17, 16, 0.57, 0.19, 0.19, 77), 3)
	checkRatio(t, "barabasi-albert", gen.BarabasiAlbert(131072, 8, 77), 3)
}

// The locality-ordering pillar: on the Graph500-parameter R-MAT graph, the
// degree relabel must shrink the gap payload — measured in payload bits per
// edge, the quantity the ordering exists to reduce. The pin is
// conservative; the measured ratio is logged.
func TestDegreeOrderBitsPerEdgeAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation-scale graphs; skipped with -short")
	}
	g := gen.RMAT(17, 16, 0.57, 0.19, 0.19, 77)
	before := succinct.GapHistogram(g, nil, 0)
	perm := succinct.ComputeOrder(g, succinct.OrderDegree, 0)
	after := succinct.GapHistogram(g, perm, 0)
	be := func(h succinct.GapHist) float64 { return float64(h.PayloadBytes) * 8 / float64(g.M()) }
	ratio := be(before) / be(after)
	t.Logf("rmat-17-16: payload %.2f -> %.2f bits/edge under order=degree (%.2fx), gap width mean %.2f -> %.2f, p90 %d -> %d",
		be(before), be(after), ratio, before.MeanBits(), after.MeanBits(),
		before.Quantile(0.90), after.Quantile(0.90))
	const pin = 1.05
	if ratio < pin {
		t.Fatalf("degree relabel shrinks the payload only %.3fx, below the %.2fx acceptance bar", ratio, pin)
	}
	// The histogram's byte accounting must agree with a real pack of the
	// relabeled graph.
	rg, err := g.Permute(perm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := succinct.Pack(rg, 0).Stats().PayloadBytes; got != after.PayloadBytes {
		t.Fatalf("GapHistogram predicts %d payload bytes, the pack of the relabeled graph has %d", after.PayloadBytes, got)
	}
}
