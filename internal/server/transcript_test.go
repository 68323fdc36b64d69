package server

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
)

var updateTranscript = flag.Bool("update-transcript", false, "rewrite testdata/transcript.golden from this tree's responses")

// TestQueryTranscript replays every query endpoint over an original and two
// variants, under both memory policies, plus the 4xx corpus the cluster's
// error test relays, against testdata/transcript.golden. A line is method,
// path, status and the body's SHA-256 — the whole body for a 4xx, so a moved
// message reads as a diff. The golden file is what a refactor of the serving
// layer is held to: it pins today's bytes, not a second implementation's.
// /compress is left out, its body carries timings. Regenerate with
// -update-transcript only when responses may change.
func TestQueryTranscript(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxWorkers: 4})
	for name, in := range map[string]struct {
		memory string
		g      *graph.Graph
	}{
		"g":  {MemoryRaw, gen.BarabasiAlbert(400, 3, 7)},
		"gp": {MemoryPacked, gen.BarabasiAlbert(400, 3, 7)},
		"dg": {MemoryRaw, gen.RMATDirected(6, 4, 0.57, 0.19, 0.19, 3)},
	} {
		if err := s.AddGraph(name, in.memory, "test", in.g, 1); err != nil {
			t.Fatal(err)
		}
	}
	var paths []string
	for _, name := range []string{"g", "gp"} {
		for _, spec := range []string{"", "&spec=uniform:p=0.5", "&spec=spanner"} {
			for _, q := range []string{
				"bfs?root=0&", "bfs?root=399&", "pagerank?k=10&", "degrees?",
				"triangles?mode=exact&", "triangles?mode=approx&p=0.5&", "compare?",
			} {
				paths = append(paths, "/v1/graphs/"+name+"/"+q+"seed=42&workers=1"+spec)
			}
		}
	}
	paths = append(paths,
		"/v1/graphs/nope/bfs?root=0",
		"/v1/graphs/g/bfs?root=100000",
		"/v1/graphs/g/bfs?root=4294967296",
		"/v1/graphs/g/bfs?root=-1&spec=uniform:p=0.5",
		"/v1/graphs/g/bfs?root=0&spec=bogus",
		"/v1/graphs/g/bfs?root=0&spec=uniform:p=2",
		"/v1/graphs/g/bfs?root=0&spec=uniform:p=NaN",
		"/v1/graphs/g/triangles?spec=tr-eo:p=NaN",
		"/v1/graphs/g/degrees?spec=uniform:p=0.5,p=0.9",
		"/v1/graphs/g/triangles?mode=approx&p=NaN",
		"/v1/graphs/dg/triangles",
		"/v1/graphs/g/triangles?mode=approx&p=7",
		"/v1/graphs/g/triangles?mode=exact&p=banana",
		"/v1/graphs/g/triangles?p=1.5",
		"/v1/graphs/g/pagerank?k=-3",
		"/v1/graphs/g/compare",
		"/v1/graphs/g/pagerank?spec=uniform:p=0.5,seed=9",
		"/v1/graphs/g/triangles?mode=bogus",
		"/v1/graphs/g/bfs?root=x",
		"/v1/graphs/g/degrees?seed=-1",
	)
	var out strings.Builder
	for _, p := range paths {
		code, body := get(t, ts.URL+p)
		digest := fmt.Sprintf("%x", sha256.Sum256(body))
		if code >= 400 && code < 500 {
			digest = strings.TrimSpace(string(body))
		}
		fmt.Fprintf(&out, "GET %s %d %s\n", p, code, digest)
	}
	golden := filepath.Join("testdata", "transcript.golden")
	if *updateTranscript {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-transcript to create it)", err)
	}
	if got := out.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gotLines), len(wantLines)) {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
			}
		}
	}
}

// TestLocalForwardsAnswerLikeTheirRoutes pins the typed Local forwards to
// their rows: each answers what its public route serializes, including the
// exact triangle count called with p = 0, which only mode=approx reads.
func TestLocalForwardsAnswerLikeTheirRoutes(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxWorkers: 4})
	if err := s.AddGraph("g", MemoryPacked, "test", gen.BarabasiAlbert(400, 3, 7), 1); err != nil {
		t.Fatal(err)
	}
	l, ctx := s.Local(), t.Context()
	for _, spec := range []string{"", "uniform:p=0.5"} {
		p := QueryParams{Spec: spec, Seed: 42, Workers: 1}
		for path, call := range map[string]func() (any, error){
			"bfs?root=3":                  func() (any, error) { return l.BFS(ctx, "g", 3, p) },
			"pagerank?k=5":                func() (any, error) { return l.PageRank(ctx, "g", 5, p) },
			"triangles?mode=exact":        func() (any, error) { return l.Triangles(ctx, "g", "exact", 0, p) },
			"triangles?mode=approx&p=0.5": func() (any, error) { return l.Triangles(ctx, "g", "approx", 0.5, p) },
			"degrees?":                    func() (any, error) { return l.Degrees(ctx, "g", p) },
		} {
			resp, err := call()
			if err != nil {
				t.Fatalf("%s spec=%q: %v", path, spec, err)
			}
			got, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			code, want := get(t, ts.URL+"/v1/graphs/g/"+path+"&seed=42&workers=1&spec="+spec)
			if code != 200 || string(got)+"\n" != string(want) {
				t.Errorf("%s spec=%q: forward answered %s\nroute (%d) answered %s", path, spec, got, code, want)
			}
		}
	}
}
