package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/server"
)

// BenchmarkCoordinatorOverhead measures the coordinator tax: the same query
// against a direct single-node server and against a coordinator over one
// and three local shards. With one shard the delta is pure cluster plumbing
// (an HTTP hop whose reply body is relayed as is) with zero algorithmic win
// to hide it; every query is one sub-request to one replica's public route.
func BenchmarkCoordinatorOverhead(b *testing.B) {
	g := gen.BarabasiAlbert(2000, 4, 7)
	queries := []struct{ name, path string }{
		{"degrees", "/v1/graphs/g/degrees?workers=1"},
		{"bfs", "/v1/graphs/g/bfs?root=0&workers=1"},
		{"pagerank", "/v1/graphs/g/pagerank?k=10&workers=1"},
	}

	bench := func(b *testing.B, base string) {
		b.Helper()
		for _, q := range queries {
			b.Run(q.name, func(b *testing.B) {
				for b.Loop() {
					resp, err := http.Get(base + q.path)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := io.Copy(io.Discard, resp.Body); err != nil {
						b.Fatal(err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Fatalf("status %d", resp.StatusCode)
					}
				}
			})
		}
	}

	b.Run("single", func(b *testing.B) {
		s := mustServer(b, server.Options{MaxWorkers: 4})
		if err := s.AddGraph("g", server.MemoryRaw, "bench", g.Clone(), 1); err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		bench(b, ts.URL)
	})
	for _, shards := range []int{1, 3} {
		b.Run(fmt.Sprintf("cluster%d", shards), func(b *testing.B) {
			lc, err := StartLocal(shards, server.Options{MaxWorkers: 4}, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer lc.Close()
			if _, err := lc.Coordinator.Create(b.Context(), "g", server.MemoryRaw, "bench", g.Clone(), 1); err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(lc.Front.Handler())
			defer ts.Close()
			bench(b, ts.URL)
		})
	}
}
