package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/oracle"
	"slimgraph/internal/server"
)

// mustServer builds a local server, failing the test on construction
// errors (only possible with a data directory, which these tests omit).
func mustServer(t testing.TB, opts server.Options) *server.Server {
	t.Helper()
	s, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustShard builds a shard around a fresh local server.
func mustShard(t testing.TB, opts server.Options) *Shard {
	t.Helper()
	sh, err := NewShard(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// startLocal boots an n-shard cluster plus an httptest frontend for the
// coordinator's public API.
func startLocal(t *testing.T, n int, shardOpts server.Options, copts Options) (*LocalCluster, *httptest.Server) {
	t.Helper()
	lc, err := StartLocal(n, shardOpts, copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	ts := httptest.NewServer(lc.Front.Handler())
	t.Cleanup(ts.Close)
	return lc, ts
}

func do(t *testing.T, method, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	return do(t, "GET", url, "", nil)
}

func postAs(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return do(t, "POST", url, "application/json", b)
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return gen.BarabasiAlbert(400, 3, 7)
}

// TestClusterMatchesSingleNode pins the core determinism contract: every
// query against a 3-shard cluster returns bytes identical to a single-node
// slimgraphd, for the original graph and for compressed variants, under
// both memory policies.
func TestClusterMatchesSingleNode(t *testing.T) {
	g := testGraph(t)
	for _, memory := range []string{server.MemoryRaw, server.MemoryPacked} {
		t.Run(memory, func(t *testing.T) {
			single := mustServer(t, server.Options{MaxWorkers: 8})
			sts := httptest.NewServer(single.Handler())
			defer sts.Close()
			if err := single.AddGraph("g", memory, "test", g.Clone(), 1); err != nil {
				t.Fatal(err)
			}

			lc, cts := startLocal(t, 3, server.Options{MaxWorkers: 8}, Options{})
			if _, err := lc.Coordinator.Create(t.Context(), "g", memory, "test", g.Clone(), 1); err != nil {
				t.Fatal(err)
			}

			specs := []string{"", "uniform:p=0.5", "spanner"}
			for _, spec := range specs {
				qspec := ""
				if spec != "" {
					qspec = "&spec=" + strings.ReplaceAll(spec, " ", "%20")
				}
				urls := []string{
					"/v1/graphs/g/bfs?root=0&seed=42&workers=1" + qspec,
					"/v1/graphs/g/pagerank?k=10&seed=42&workers=1" + qspec,
					"/v1/graphs/g/triangles?seed=42&workers=1" + qspec,
					"/v1/graphs/g/triangles?mode=approx&p=0.5&seed=42&workers=1" + qspec,
					"/v1/graphs/g/degrees?seed=42&workers=1" + qspec,
				}
				if spec != "" {
					urls = append(urls, "/v1/graphs/g/compare?seed=42&workers=1"+qspec)
				}
				for _, u := range urls {
					wantCode, want := get(t, sts.URL+u)
					gotCode, got := get(t, cts.URL+u)
					if wantCode != http.StatusOK {
						t.Fatalf("single node %s: status %d: %s", u, wantCode, want)
					}
					if gotCode != wantCode || !bytes.Equal(got, want) {
						t.Errorf("%s:\n single (%d): %s\ncluster (%d): %s", u, wantCode, want, gotCode, got)
					}
				}
			}
		})
	}
}

// TestClusterListMatchesSingleNode pins the listing endpoints to the same
// contract: GET /v1/graphs (empty and populated, under both memory
// policies) and GET /v1/schemes answer with a single node's bytes.
func TestClusterListMatchesSingleNode(t *testing.T) {
	single := mustServer(t, server.Options{MaxWorkers: 8})
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	_, cts := startLocal(t, 3, server.Options{MaxWorkers: 8}, Options{})

	same := func(u string) []byte {
		t.Helper()
		wantCode, want := get(t, sts.URL+u)
		gotCode, got := get(t, cts.URL+u)
		if wantCode != http.StatusOK || gotCode != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("%s:\n single (%d): %s\ncluster (%d): %s", u, wantCode, want, gotCode, got)
		}
		return got
	}
	if got := same("/v1/graphs"); string(got) != "[]\n" {
		t.Fatalf("empty cluster lists as %q, want []", got)
	}
	for _, req := range []map[string]any{
		{"name": "zeta", "gen": "ba", "numVertices": 300, "edgeFactor": 3, "seed": 7, "memory": server.MemoryPacked},
		{"name": "alpha", "gen": "grid", "numVertices": 100},
	} {
		for _, base := range []string{sts.URL, cts.URL} {
			if code, body := postAs(t, base+"/v1/graphs", req); code != http.StatusCreated {
				t.Fatalf("create %v: status %d: %s", req["name"], code, body)
			}
		}
	}
	got := same("/v1/graphs")
	if a, z := bytes.Index(got, []byte(`"alpha"`)), bytes.Index(got, []byte(`"zeta"`)); a < 0 || z < a {
		t.Fatalf("cluster list not sorted by name: %s", got)
	}
	same("/v1/schemes")
}

// TestClusterErrorsMatchSingleNode pins the verbatim 4xx relay: validation
// errors from shards surface with the same status and body a single node
// produces.
func TestClusterErrorsMatchSingleNode(t *testing.T) {
	g := testGraph(t)
	dg := gen.RMATDirected(6, 4, 0.57, 0.19, 0.19, 3)

	single := mustServer(t, server.Options{MaxWorkers: 4})
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	lc, cts := startLocal(t, 3, server.Options{MaxWorkers: 4}, Options{})
	for name, gr := range map[string]*graph.Graph{"g": g, "dg": dg} {
		if err := single.AddGraph(name, server.MemoryRaw, "test", gr.Clone(), 1); err != nil {
			t.Fatal(err)
		}
		if _, err := lc.Coordinator.Create(t.Context(), name, server.MemoryRaw, "test", gr.Clone(), 1); err != nil {
			t.Fatal(err)
		}
	}
	urls := []string{
		"/v1/graphs/nope/bfs?root=0",                      // 404 unknown graph
		"/v1/graphs/g/bfs?root=100000",                    // 400 root out of range
		"/v1/graphs/g/bfs?root=4294967296",                // 400 root that would wrap to 0 as int32
		"/v1/graphs/g/bfs?root=-1&spec=uniform:p=0.5",     // 400 before any scheme runs
		"/v1/graphs/g/bfs?root=0&spec=bogus",              // 422 unknown scheme
		"/v1/graphs/g/bfs?root=0&spec=uniform:p=2",        // 422 bad parameter
		"/v1/graphs/g/bfs?root=0&spec=uniform:p=NaN",      // 422 NaN is inside no range
		"/v1/graphs/g/triangles?spec=tr-eo:p=NaN",         // 422 on a scattered kernel too
		"/v1/graphs/g/degrees?spec=uniform:p=0.5,p=0.9",   // 422 repeated key
		"/v1/graphs/g/triangles?mode=approx&p=NaN",        // 400 NaN p
		"/v1/graphs/dg/triangles",                         // 422 directed
		"/v1/graphs/g/triangles?mode=approx&p=7",          // 400 bad p
		"/v1/graphs/g/triangles?mode=exact&p=banana",      // 400 p is validated in either mode
		"/v1/graphs/g/triangles?p=1.5",                    // 400 out of range, mode defaulted
		"/v1/graphs/g/pagerank?k=-3",                      // 400 negative k
		"/v1/graphs/g/compare",                            // 400 missing spec
		"/v1/graphs/g/pagerank?spec=uniform:p=0.5,seed=9", // 422 seed in spec
	}
	for _, u := range urls {
		wantCode, want := get(t, sts.URL+u)
		gotCode, got := get(t, cts.URL+u)
		if wantCode < 400 || wantCode >= 500 {
			t.Fatalf("single node %s: expected a 4xx, got %d: %s", u, wantCode, want)
		}
		if gotCode != wantCode || !bytes.Equal(got, want) {
			t.Errorf("%s:\n single (%d): %s\ncluster (%d): %s", u, wantCode, want, gotCode, got)
		}
	}
	for name, upload := range oracle.HostileSnapshots() {
		wantCode, want := do(t, "POST", sts.URL+"/v1/graphs?name=hostile", "", upload)
		gotCode, got := do(t, "POST", cts.URL+"/v1/graphs?name=hostile", "", upload)
		if wantCode != http.StatusBadRequest || !strings.Contains(string(want), "graphio: snapshot ") {
			t.Errorf("hostile upload %s: single node status %d, body %s; want 400 from graphio's bounds", name, wantCode, want)
		}
		if gotCode != wantCode || !bytes.Equal(got, want) {
			t.Errorf("hostile upload %s:\n single (%d): %s\ncluster (%d): %s", name, wantCode, want, gotCode, got)
		}
	}
}

// TestShardLoadRefusesHostileSnapshots drives the replication route
// directly: a shard is as exposed to a lying snapshot header as the public
// upload route is, and answers it the same way.
func TestShardLoadRefusesHostileSnapshots(t *testing.T) {
	ts := httptest.NewServer(mustShard(t, server.Options{}).Handler())
	defer ts.Close()
	for name, upload := range oracle.HostileSnapshots() {
		code, body := do(t, "POST", ts.URL+"/internal/v1/graphs?name=hostile&workers=1", "", upload)
		if code != http.StatusBadRequest || !strings.Contains(string(body), "graphio: snapshot ") {
			t.Errorf("%s: status %d, body %s; want 400 from graphio's bounds", name, code, body)
		}
	}
}

// TestClusterCacheReplication pins variant replication: one public compress
// executes the scheme exactly once on every shard, later spec queries are
// cache hits everywhere, and a repeated compress reports Cached.
func TestClusterCacheReplication(t *testing.T) {
	lc, cts := startLocal(t, 3, server.Options{MaxWorkers: 4}, Options{})
	if _, err := lc.Coordinator.Create(t.Context(), "g", server.MemoryRaw, "test", testGraph(t), 1); err != nil {
		t.Fatal(err)
	}

	req := server.CompressRequest{Spec: "uniform:p=0.5", Seed: 42, Workers: 1}
	code, body := postAs(t, cts.URL+"/v1/graphs/g/compress", req)
	if code != http.StatusOK {
		t.Fatalf("compress: status %d: %s", code, body)
	}
	var cr server.CompressResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Cached {
		t.Fatalf("first compress reported cached: %s", body)
	}
	for i := 0; i < lc.NumShards(); i++ {
		cs := lc.Shard(i).Server().CacheStats()
		if cs.Executions != 1 || cs.Entries != 1 {
			t.Fatalf("shard %d after compress: executions=%d entries=%d, want 1/1", i, cs.Executions, cs.Entries)
		}
	}

	// Spec queries resolve from every replica's cache: no new executions.
	if code, body := get(t, cts.URL+"/v1/graphs/g/pagerank?k=5&spec=uniform:p=0.5&seed=42&workers=1"); code != http.StatusOK {
		t.Fatalf("pagerank: status %d: %s", code, body)
	}
	for i := 0; i < lc.NumShards(); i++ {
		cs := lc.Shard(i).Server().CacheStats()
		if cs.Executions != 1 {
			t.Fatalf("shard %d after spec query: executions=%d, want 1 (cache hit)", i, cs.Executions)
		}
		if cs.Hits == 0 {
			t.Fatalf("shard %d after spec query: no cache hits", i)
		}
	}

	code, body = postAs(t, cts.URL+"/v1/graphs/g/compress", req)
	if code != http.StatusOK {
		t.Fatalf("re-compress: status %d: %s", code, body)
	}
	var cr2 server.CompressResponse
	if err := json.Unmarshal(body, &cr2); err != nil {
		t.Fatal(err)
	}
	if !cr2.Cached {
		t.Fatalf("repeated compress not served from cache: %s", body)
	}
	if cr2.N != cr.N || cr2.M != cr.M || cr2.Spec != cr.Spec {
		t.Fatalf("cached compress changed shape: %+v vs %+v", cr2, cr)
	}

	// Aggregated stats: counter sums with the per-shard breakdown.
	code, body = get(t, cts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: status %d: %s", code, body)
	}
	var stats server.StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.PerShard) != 3 {
		t.Fatalf("perShard has %d entries, want 3: %s", len(stats.PerShard), body)
	}
	if stats.Cache.Executions != 3 {
		t.Fatalf("aggregated executions = %d, want 3: %s", stats.Cache.Executions, body)
	}
	if stats.Graphs != 1 {
		t.Fatalf("logical graph count = %d, want 1: %s", stats.Graphs, body)
	}
	for i, ps := range stats.PerShard {
		if ps.Shard != i || ps.Graphs != 1 || ps.Cache.Executions != 1 {
			t.Fatalf("perShard[%d] = %+v", i, ps)
		}
	}
}

// flakyShard wraps a real shard handler and, while armed, hangs public
// compress requests past any reasonable deadline — simulating a stuck
// replica.
type flakyShard struct {
	inner http.Handler
	armed atomic.Bool
	delay time.Duration
}

func (f *flakyShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.armed.Load() && strings.HasSuffix(r.URL.Path, "/compress") {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(f.delay):
		}
	}
	f.inner.ServeHTTP(w, r)
}

// TestClusterShardFailure pins the failure path: a hung shard fails the
// request fast with a 502 (no coordinator hang), and no replica keeps a
// partially replicated variant.
func TestClusterShardFailure(t *testing.T) {
	shardOpts := server.Options{MaxWorkers: 4}
	good0, good1 := mustShard(t, shardOpts), mustShard(t, shardOpts)
	flaky := &flakyShard{inner: mustShard(t, shardOpts).Handler(), delay: 2 * time.Second}
	t0 := httptest.NewServer(good0.Handler())
	t1 := httptest.NewServer(good1.Handler())
	t2 := httptest.NewServer(flaky)
	defer t0.Close()
	defer t1.Close()
	defer t2.Close()

	coord, err := NewCoordinator(Options{
		Shards:       []string{t0.URL, t1.URL, t2.URL},
		ShardTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(server.NewWithBackend(coord, coord, server.Options{MaxWorkers: 4}).Handler())
	defer front.Close()

	if _, err := coord.Create(t.Context(), "g", server.MemoryRaw, "test", testGraph(t), 1); err != nil {
		t.Fatal(err)
	}

	flaky.armed.Store(true)
	start := time.Now()
	code, body := postAs(t, front.URL+"/v1/graphs/g/compress",
		server.CompressRequest{Spec: "uniform:p=0.5", Seed: 42, Workers: 1})
	elapsed := time.Since(start)
	if code != http.StatusBadGateway {
		t.Fatalf("compress with hung shard: status %d, want 502: %s", code, body)
	}
	if !strings.Contains(string(body), "shard 2") {
		t.Fatalf("error does not name the failing shard: %s", body)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("coordinator took %v with a hung shard; timeout did not bound the request", elapsed)
	}
	// The purge scatter ran before the error returned: the healthy shards
	// must not retain the half-replicated variant.
	for i, sh := range []*Shard{good0, good1} {
		cs := sh.Server().CacheStats()
		if cs.Entries != 0 {
			t.Fatalf("healthy shard %d retains %d cache entries after failed replication", i, cs.Entries)
		}
	}

	// Recovery: disarm and the same request succeeds, re-executing the
	// scheme on the purged shards.
	flaky.armed.Store(false)
	code, body = postAs(t, front.URL+"/v1/graphs/g/compress",
		server.CompressRequest{Spec: "uniform:p=0.5", Seed: 42, Workers: 1})
	if code != http.StatusOK {
		t.Fatalf("compress after recovery: status %d: %s", code, body)
	}
}

// TestClusterDropPurgesReplicas pins catalog deletion: a drop through the
// coordinator removes the graph and its variants from every shard.
func TestClusterDropPurgesReplicas(t *testing.T) {
	lc, cts := startLocal(t, 3, server.Options{MaxWorkers: 4}, Options{})
	if _, err := lc.Coordinator.Create(t.Context(), "g", server.MemoryRaw, "test", testGraph(t), 1); err != nil {
		t.Fatal(err)
	}
	if code, body := postAs(t, cts.URL+"/v1/graphs/g/compress",
		server.CompressRequest{Spec: "uniform:p=0.5", Seed: 1, Workers: 1}); code != http.StatusOK {
		t.Fatalf("compress: status %d: %s", code, body)
	}
	code, body := do(t, "DELETE", cts.URL+"/v1/graphs/g", "", nil)
	if code != http.StatusOK {
		t.Fatalf("delete: status %d: %s", code, body)
	}
	var dr server.DeleteResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Deleted != "g" || dr.VariantsDropped != 1 {
		t.Fatalf("delete response %+v, want g/1", dr)
	}
	for i := 0; i < lc.NumShards(); i++ {
		cs := lc.Shard(i).Server().CacheStats()
		if cs.Entries != 0 {
			t.Fatalf("shard %d retains %d variants after drop", i, cs.Entries)
		}
	}
	if code, body := get(t, cts.URL+"/v1/graphs/g"); code != http.StatusNotFound {
		t.Fatalf("dropped graph still resolves: %d %s", code, body)
	}
}

// TestMergeStatsArithmetic pins the aggregation arithmetic field by field.
func TestMergeStatsArithmetic(t *testing.T) {
	per := []server.ShardStats{
		{Shard: 0, Addr: "a", Graphs: 2, Cache: server.CacheStats{
			Hits: 1, Coalesced: 2, Misses: 3, Executions: 4, Failures: 5, Evictions: 6, Entries: 7, Capacity: 64}},
		{Shard: 1, Addr: "b", Graphs: 2, Cache: server.CacheStats{
			Hits: 10, Coalesced: 20, Misses: 30, Executions: 40, Failures: 50, Evictions: 60, Entries: 7, Capacity: 64}},
	}
	got := MergeStats(2, per)
	want := server.CacheStats{
		Hits: 11, Coalesced: 22, Misses: 33, Executions: 44, Failures: 55, Evictions: 66, Entries: 14, Capacity: 128}
	if got.Cache != want {
		t.Errorf("merged cache stats %+v, want %+v", got.Cache, want)
	}
	if got.Graphs != 2 {
		t.Errorf("merged graphs %d, want 2 (logical count, not per-shard sum)", got.Graphs)
	}
	if len(got.PerShard) != 2 || got.PerShard[0].Addr != "a" || got.PerShard[1].Addr != "b" {
		t.Errorf("perShard breakdown lost: %+v", got.PerShard)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(got); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"perShard"`) {
		t.Errorf("stats JSON missing perShard key: %s", buf.String())
	}
}

// TestClusterReadiness pins /readyz: the coordinator is ready only when
// every shard is.
func TestClusterReadiness(t *testing.T) {
	lc, cts := startLocal(t, 2, server.Options{MaxWorkers: 2}, Options{ShardTimeout: time.Second})
	if code, body := get(t, cts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz with healthy shards: %d %s", code, body)
	}
	lc.Shard(1).Server().SetNotReady("draining")
	if code, body := get(t, cts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a draining shard: %d %s", code, body)
	}
	lc.Shard(1).Server().SetReady()
	if code, body := get(t, cts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after recovery: %d %s", code, body)
	}
	if code, body := get(t, cts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
}
