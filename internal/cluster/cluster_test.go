package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// frontOver serves each handler as a shard and starts a coordinator front
// over them: the wiring StartLocal does, for tests that need per-shard
// options or a shard handler wrapped in a fault.
func frontOver(t *testing.T, copts Options, frontOpts server.Options, shards ...http.Handler) (*Coordinator, *httptest.Server) {
	t.Helper()
	for _, h := range shards {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		copts.Shards = append(copts.Shards, ts.URL)
	}
	coord, err := NewCoordinator(copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	front := httptest.NewServer(server.NewWithBackend(coord, coord, frontOpts).Handler())
	t.Cleanup(front.Close)
	return coord, front
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
// both memory policies, every row at several worker counts.
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
				// Every query runs whole on one replica, so it matches a
				// single node at the same worker count, not only at one.
				var urls []string
				// Every parsed argument reaches the replica, zeros too: k=0
				// is no top-k, not the replica's default of ten.
				for _, workers := range []string{"1", "2", "7"} {
					urls = append(urls,
						"/v1/graphs/g/bfs?root=0&seed=42&workers="+workers+qspec,
						"/v1/graphs/g/bfs?root=3&seed=42&workers="+workers+qspec,
						"/v1/graphs/g/pagerank?k=10&seed=42&workers="+workers+qspec,
						"/v1/graphs/g/pagerank?k=0&seed=42&workers="+workers+qspec,
						"/v1/graphs/g/pagerank?seed=42&workers="+workers+qspec,
						"/v1/graphs/g/triangles?seed=42&workers="+workers+qspec,
						"/v1/graphs/g/triangles?mode=approx&p=0.5&seed=42&workers="+workers+qspec,
						"/v1/graphs/g/triangles?mode=approx&seed=0&workers="+workers+qspec,
						"/v1/graphs/g/degrees?seed=42&workers="+workers+qspec)
				}
				if spec != "" {
					urls = append(urls,
						"/v1/graphs/g/compare?seed=42&workers=1"+qspec,
						"/v1/graphs/g/compare?seed=42&workers=2"+qspec,
						"/v1/graphs/g/compare?seed=42&workers=7"+qspec)
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
		"/v1/graphs/g/triangles?spec=tr-eo:p=NaN",         // 422 on the exact count too
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
	// A query goes to one replica and the replicas take them in turn, so
	// one per replica reaches each.
	for range lc.NumShards() {
		if code, body := get(t, cts.URL+"/v1/graphs/g/pagerank?k=5&spec=uniform:p=0.5&seed=42&workers=1"); code != http.StatusOK {
			t.Fatalf("pagerank: status %d: %s", code, body)
		}
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

// TestCompressTimingFromSlowestReplica pins the merged timing of a cluster
// compress: its elapsedMs and its per-stage breakdown come from one replica,
// the slowest, so the stages still account for the elapsed time. Each
// shard's own cached /compress answer is what it measured.
func TestCompressTimingFromSlowestReplica(t *testing.T) {
	lc, cts := startLocal(t, 3, server.Options{MaxWorkers: 4}, Options{})
	if _, err := lc.Coordinator.Create(t.Context(), "g", server.MemoryRaw, "test", testGraph(t), 1); err != nil {
		t.Fatal(err)
	}
	compress := func(base string, seed uint64) server.CompressResponse {
		t.Helper()
		code, body := postAs(t, base+"/v1/graphs/g/compress",
			server.CompressRequest{Spec: "uniform:p=0.5|spanner", Seed: seed, Workers: 1})
		if code != http.StatusOK {
			t.Fatalf("compress via %s: status %d: %s", base, code, body)
		}
		var cr server.CompressResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		return cr
	}
	for seed := uint64(1); seed <= 10; seed++ {
		merged := compress(cts.URL, seed)
		if len(merged.Stages) != 2 {
			t.Fatalf("seed %d: %d stages, want 2: %+v", seed, len(merged.Stages), merged)
		}
		slowest := server.CompressResponse{ElapsedMS: -1}
		for i := 0; i < lc.NumShards(); i++ {
			if own := compress(lc.Addr(i), seed); own.ElapsedMS > slowest.ElapsedMS {
				slowest = own
			}
		}
		if merged.ElapsedMS != slowest.ElapsedMS || !reflect.DeepEqual(merged.Stages, slowest.Stages) {
			t.Fatalf("seed %d: cluster answered elapsed %v with stages %+v; the slowest replica measured %v with %+v",
				seed, merged.ElapsedMS, merged.Stages, slowest.ElapsedMS, slowest.Stages)
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

// TestClusterShardFailure pins the failure path: a hung shard costs a
// compress its timeout, not its answer (no coordinator hang, no error), the
// healthy replicas keep the variant, and the recovered shard computes the
// variant itself, once, when it is asked for it.
func TestClusterShardFailure(t *testing.T) {
	shardOpts := server.Options{MaxWorkers: 4}
	good0, good1, hung := mustShard(t, shardOpts), mustShard(t, shardOpts), mustShard(t, shardOpts)
	flaky := &flakyShard{inner: hung.Handler(), delay: 2 * time.Second}
	coord, front := frontOver(t, Options{ShardTimeout: 200 * time.Millisecond}, server.Options{MaxWorkers: 4},
		good0.Handler(), good1.Handler(), flaky)

	if _, err := coord.Create(t.Context(), "g", server.MemoryRaw, "test", testGraph(t), 1); err != nil {
		t.Fatal(err)
	}

	flaky.armed.Store(true)
	start := time.Now()
	code, body := postAs(t, front.URL+"/v1/graphs/g/compress",
		server.CompressRequest{Spec: "uniform:p=0.5", Seed: 42, Workers: 1})
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("compress with hung shard: status %d, want 200: %s", code, body)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("coordinator took %v with a hung shard; timeout did not bound the request", elapsed)
	}
	// The healthy shards keep the variant they computed.
	for i, sh := range []*Shard{good0, good1} {
		cs := sh.Server().CacheStats()
		if cs.Entries != 1 {
			t.Fatalf("healthy shard %d holds %d cache entries after the compress, want 1", i, cs.Entries)
		}
	}

	// Recovery: disarm and the same request succeeds; the recovered shard
	// computes the variant on the first request that reaches it, and only
	// then.
	flaky.armed.Store(false)
	code, body = postAs(t, front.URL+"/v1/graphs/g/compress",
		server.CompressRequest{Spec: "uniform:p=0.5", Seed: 42, Workers: 1})
	if code != http.StatusOK {
		t.Fatalf("compress after recovery: status %d: %s", code, body)
	}
	for range 2 {
		if code, body := postAs(t, coord.opts.Shards[2]+"/v1/graphs/g/compress",
			server.CompressRequest{Spec: "uniform:p=0.5", Seed: 42, Workers: 1}); code != http.StatusOK {
			t.Fatalf("compress on the recovered shard: status %d: %s", code, body)
		}
	}
	if cs := hung.Server().CacheStats(); cs.Executions != 1 {
		t.Fatalf("recovered shard executed the scheme %d times, want 1", cs.Executions)
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
