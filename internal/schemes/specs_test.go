package schemes

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"slimgraph/internal/graph"
)

// applySpec is how every test in this package compresses a graph: the spec
// string is the one construction path, exactly as the server, the CLIs and
// the experiment drivers use it.
func applySpec(t testing.TB, g graph.AdjacencyEdges, spec string, seed uint64, workers int) *Result {
	t.Helper()
	s, err := Parse(spec, WithSeed(seed), WithWorkers(workers))
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	res, err := s.Apply(g)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	return res
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.txt and testdata/specs.txt from the current outputs")

const specsPath = "testdata/specs.txt"

// TestSpecCorpusReplays replays testdata/specs.txt: one line per spec, as
// `"spec" -> "canonical"` (Spec(Parse(spec))) or `"spec" -> error`. The left
// column is the corpus — the FuzzParseScheme seeds plus every spec literal in
// README, doc.go, examples/ and internal/experiments — and the right column
// was captured on the commit before the registry became a parameter table, so
// a canonical spec that moves (they key the variant cache and name spilled
// variant files) or a spec that changes sides fails here. -update-golden
// rewrites the right column from the current parser.
func TestSpecCorpusReplays(t *testing.T) {
	data, err := os.ReadFile(specsPath)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for n, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		quoted, err := strconv.QuotedPrefix(line)
		if err != nil {
			t.Fatalf("%s:%d: %v", specsPath, n+1, err)
		}
		spec, _ := strconv.Unquote(quoted)
		got := "error"
		if s, err := Parse(spec); err == nil {
			got = strconv.Quote(Spec(s))
		}
		fmt.Fprintf(&out, "%s -> %s\n", quoted, got)
		if want := strings.TrimPrefix(line[len(quoted):], " -> "); got != want && !*updateGolden {
			t.Errorf("%s:%d: %s -> %s, recorded %s", specsPath, n+1, quoted, got, want)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(specsPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
