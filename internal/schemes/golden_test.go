//go:build !race

package schemes

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
)

// The golden file pins, for every registered scheme × graph × seed at one
// worker, the output's edge count and a SHA-256 over (u, v, weight bits) of
// its canonical edges. The first 90 lines were captured on the commit before
// the kernel engine was made allocation-free (in-place re-seed, idle
// predicate, batched triangle emission), the 18 small-graph lines on the
// commit before the registry became a parameter table, so the file is what
// "byte-identical to the parent" means. Regenerate (-update-golden, declared
// in specs_test.go) only on a commit whose outputs are the reference.
// Excluded under -race: the pins are one-worker runs the detector has nothing
// to watch in, and instrumented they take two minutes; the kernel loops run
// raced at several workers in the core and scheme tests.
const goldenPath = "testdata/golden.txt"

var goldenGraphs = []struct {
	name  string
	small bool
	make  func() *graph.Graph
}{
	{"rmat14", false, func() *graph.Graph { return gen.RMAT(14, 16, 0.57, 0.19, 0.19, 77) }},
	{"grid128", false, func() *graph.Graph { return gen.Grid2D(128, 128, true) }},
	{"rmat10", true, func() *graph.Graph { return gen.RMAT(10, 16, 0.57, 0.19, 0.19, 77) }},
	{"grid32", true, func() *graph.Graph { return gen.Grid2D(32, 32, true) }},
}

func edgeDigest(g *graph.Graph) string {
	h := sha256.New()
	var buf [16]byte
	g.ForEdges(func(_ graph.EdgeID, u, v graph.NodeID, w float64) {
		binary.LittleEndian.PutUint32(buf[0:], uint32(u))
		binary.LittleEndian.PutUint32(buf[4:], uint32(v))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(w))
		h.Write(buf[:])
	})
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenOutputs(t *testing.T) {
	got := map[string]string{}
	var order []string
	for _, gg := range goldenGraphs {
		g := gg.make()
		for _, sp := range goldenSpecs {
			if sp.small != gg.small {
				continue
			}
			for seed := uint64(1); seed <= 3; seed++ {
				out := applySpec(t, g, sp.spec, seed, 1).Output
				key := fmt.Sprintf("%s %s %d", gg.name, sp.spec, seed)
				got[key] = fmt.Sprintf("%d %s", out.M(), edgeDigest(out))
				order = append(order, key)
				if sp.scheduleFree && seed == 1 {
					for _, workers := range []int{2, 7} {
						if par := applySpec(t, g, sp.spec, seed, workers).Output; !par.Equal(out) {
							t.Errorf("%s workers=%d: output differs from the one-worker output", key, workers)
						}
					}
				}
			}
		}
	}
	if *updateGolden {
		var b strings.Builder
		for _, key := range order {
			fmt.Fprintf(&b, "%s %s\n", key, got[key])
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	checked := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 5 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		key, want := strings.Join(fields[:3], " "), strings.Join(fields[3:], " ")
		checked++
		if have := got[key]; have != want {
			t.Errorf("%s: m and digest %q, golden %q", key, have, want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if checked != len(got) {
		t.Fatalf("golden file covers %d of %d computed outputs", checked, len(got))
	}
}
