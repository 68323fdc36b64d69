package cluster

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"slimgraph/internal/obs"
	"slimgraph/internal/resilience"
	"slimgraph/internal/server"
)

// logCapture records structured log lines as field maps.
type logCapture struct {
	mu    sync.Mutex
	lines []map[string]any
}

func (l *logCapture) Log(fields ...obs.Field) {
	m := map[string]any{}
	for _, f := range fields {
		m[f.Key] = f.Value
	}
	l.mu.Lock()
	l.lines = append(l.lines, m)
	l.mu.Unlock()
}

func (l *logCapture) snapshot() []map[string]any {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]map[string]any(nil), l.lines...)
}

// metricValue reads one series from base's GET /metrics, failing the test
// when it is absent.
func metricValue(t *testing.T, base, series string) float64 {
	t.Helper()
	code, text := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("%s/metrics: status %d", base, code)
	}
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %q", series, line)
			}
			return f
		}
	}
	t.Fatalf("%s/metrics has no %s", base, series)
	return 0
}

// TestOneSubRequestPerQuery: on three shards, a query of every row of
// server.Kernels sends exactly one sub-request, to one replica, with a spec
// too — the replica computes the variant if it lacks it.
func TestOneSubRequestPerQuery(t *testing.T) {
	lc, ts := startLocal(t, 3, server.Options{MaxWorkers: 4}, Options{})
	if _, err := lc.Coordinator.Create(t.Context(), "g", server.MemoryRaw, "test", testGraph(t), 1); err != nil {
		t.Fatal(err)
	}
	sent := func() (sum int64) {
		for i := range lc.NumShards() {
			sum += lc.Front.Registry().Counter("slimgraph_shard_requests_total", "", obs.Label{Key: "shard", Value: strconv.Itoa(i)}).Value()
		}
		return sum
	}
	for _, k := range server.Kernels {
		for _, spec := range []string{"", "uniform:p=0.5"} {
			u := "/v1/graphs/g/" + k.Name + "?seed=42&workers=2&mode=" + k.Mode
			if spec != "" {
				u += "&spec=" + spec
			}
			before := sent()
			code, body := get(t, ts.URL+u)
			if code == http.StatusBadRequest && spec == "" && k.Name == "compare" {
				continue // compare needs a spec
			}
			if code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", u, code, body)
			}
			if got := sent() - before; got != 1 {
				t.Errorf("%s: %d sub-requests, want 1", u, got)
			}
		}
	}
}

// TestClusterSubRequestAggregation pins the histogram-merge invariant on a
// live 3-shard cluster: merging the per-shard latency snapshots from
// /v1/stats reproduces the coordinator's SubRequests aggregate exactly
// (bucket counts and totals; the float sum within rounding), and the
// per-shard request counters sum to the aggregate count.
func TestClusterSubRequestAggregation(t *testing.T) {
	lc, ts := startLocal(t, 3, server.Options{MaxWorkers: 4}, Options{})
	if _, err := lc.Coordinator.Create(t.Context(), "g", server.MemoryRaw, "test", testGraph(t), 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		code, body := get(t, ts.URL+"/v1/graphs/g/bfs?root=0&seed=42&workers=1")
		if code != http.StatusOK {
			t.Fatalf("bfs status %d: %s", code, body)
		}
	}

	code, body := get(t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats status %d: %s", code, body)
	}
	var st server.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.SubRequests == nil {
		t.Fatal("stats carry no SubRequests aggregate")
	}
	if st.SubRequests.Count == 0 {
		t.Fatal("SubRequests aggregate is empty after traffic")
	}

	var merged obs.HistogramSnapshot
	var requestSum int64
	for _, ps := range st.PerShard {
		if !ps.Ready {
			t.Fatalf("shard %d not marked ready: %+v", ps.Shard, ps)
		}
		if ps.InFlight != 0 {
			t.Fatalf("shard %d reports %d in-flight at rest", ps.Shard, ps.InFlight)
		}
		if ps.Latency == nil {
			t.Fatalf("shard %d has no latency snapshot", ps.Shard)
		}
		if ps.Latency.Count != ps.Requests {
			t.Fatalf("shard %d: latency count %d != requests %d",
				ps.Shard, ps.Latency.Count, ps.Requests)
		}
		requestSum += ps.Requests
		var err error
		if merged, err = merged.Merge(*ps.Latency); err != nil {
			t.Fatalf("merging shard %d snapshot: %v", ps.Shard, err)
		}
	}
	if merged.Count != st.SubRequests.Count {
		t.Fatalf("merged count %d != aggregate count %d", merged.Count, st.SubRequests.Count)
	}
	if requestSum != st.SubRequests.Count {
		t.Fatalf("per-shard requests sum %d != aggregate count %d", requestSum, st.SubRequests.Count)
	}
	if len(merged.Counts) != len(st.SubRequests.Counts) {
		t.Fatalf("bucket layouts differ: %d vs %d", len(merged.Counts), len(st.SubRequests.Counts))
	}
	for i := range merged.Counts {
		if merged.Counts[i] != st.SubRequests.Counts[i] {
			t.Fatalf("bucket %d: merged %d != aggregate %d (merged=%v aggregate=%v)",
				i, merged.Counts[i], st.SubRequests.Counts[i], merged.Counts, st.SubRequests.Counts)
		}
	}
	// The sums accumulate the same observations in different orders, so
	// compare within float rounding rather than exactly.
	if diff := math.Abs(merged.Sum - st.SubRequests.Sum); diff > 1e-9*(1+math.Abs(st.SubRequests.Sum)) {
		t.Fatalf("merged sum %v != aggregate sum %v", merged.Sum, st.SubRequests.Sum)
	}
	if st.UptimeSeconds <= 0 {
		t.Fatalf("uptimeSeconds = %v", st.UptimeSeconds)
	}
}

// TestClusterRequestIDStitching sends a BFS with a caller-chosen request ID
// and checks the same ID appears on the coordinator's log line and on the
// one shard log line of the sub-request: a BFS runs whole on one replica,
// so exactly one shard logs it, the one that served it.
func TestClusterRequestIDStitching(t *testing.T) {
	const reqID = "feedface00000042"
	frontLog := &logCapture{}
	shardLogs := []*logCapture{{}, {}, {}}
	var shards []http.Handler
	for _, l := range shardLogs {
		shards = append(shards, mustShard(t, server.Options{MaxWorkers: 4, Logger: l}).Handler())
	}
	coord, ts := frontOver(t, Options{}, server.Options{MaxWorkers: 4, Logger: frontLog}, shards...)
	if _, err := coord.Create(t.Context(), "g", server.MemoryRaw, "test", testGraph(t), 1); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest("GET", ts.URL+"/v1/graphs/g/bfs?root=0&seed=42&workers=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bfs status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != reqID {
		t.Fatalf("response echoed ID %q, want %q", got, reqID)
	}

	var frontBFS int
	for _, line := range frontLog.snapshot() {
		if line["endpoint"] == "GET /v1/graphs/{name}/bfs" {
			frontBFS++
			if line["request_id"] != reqID {
				t.Fatalf("coordinator log line carries ID %v, want %q", line["request_id"], reqID)
			}
		}
	}
	if frontBFS != 1 {
		t.Fatalf("coordinator logged %d BFS lines, want 1", frontBFS)
	}

	served := -1
	for i, l := range shardLogs {
		for _, line := range l.snapshot() {
			if line["endpoint"] != "GET /v1/graphs/{name}/bfs" {
				continue
			}
			if served >= 0 {
				t.Fatalf("shards %d and %d both logged a BFS sub-request", served, i)
			}
			served = i
			if line["request_id"] != reqID || line["status"] != http.StatusOK {
				t.Fatalf("shard %d sub-request log line carries ID %v, status %v; want %q, 200",
					i, line["request_id"], line["status"], reqID)
			}
		}
	}
	if served < 0 {
		t.Fatal("no shard logged the BFS sub-request")
	}
}

// TestRelaysRotateAcrossReplicas pins the spread of queries: as many
// requests in a row as there are shards, of each route, reach every live
// shard once. It counts each shard's own requests to its public analytics
// routes (slimgraph_http_requests_total by endpoint), where a query's one
// sub-request lands.
func TestRelaysRotateAcrossReplicas(t *testing.T) {
	lc, ts := startLocal(t, 3, server.Options{MaxWorkers: 4}, Options{})
	if _, err := lc.Coordinator.Create(t.Context(), "g", server.MemoryRaw, "test", testGraph(t), 1); err != nil {
		t.Fatal(err)
	}
	queries := func() []float64 {
		t.Helper()
		out := make([]float64, lc.NumShards())
		for i := range out {
			code, text := get(t, lc.Addr(i)+"/metrics")
			if code != http.StatusOK {
				t.Fatalf("shard %d metrics status %d", i, code)
			}
			for _, line := range strings.Split(string(text), "\n") {
				if !strings.HasPrefix(line, `slimgraph_http_requests_total{endpoint="GET /v1/graphs/{name}/`) {
					continue
				}
				v, _ := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
				out[i] += v
			}
		}
		return out
	}
	for _, u := range []string{
		"/v1/graphs/g/bfs?root=0&seed=42&workers=1",
		"/v1/graphs/g/pagerank?k=10&seed=42&workers=1",
		"/v1/graphs/g/degrees?seed=42&workers=1",
		"/v1/graphs/g/triangles?seed=42&workers=1",
		"/v1/graphs/g/triangles?mode=approx&p=0.5&seed=42&workers=1",
		"/v1/graphs/g/bfs?root=0&seed=42&workers=1&spec=uniform:p=0.5",
		"/v1/graphs/g/compare?spec=uniform:p=0.5&seed=42&workers=1",
	} {
		before := queries()
		for range lc.NumShards() {
			if code, body := get(t, ts.URL+u); code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", u, code, body)
			}
		}
		after := queries()
		for i := range before {
			if after[i] != before[i]+1 {
				t.Errorf("%s: shard %d served %v of %d queries in a row, want 1 each",
					u, i, after[i]-before[i], lc.NumShards())
			}
		}
	}
}

// TestClusterMetricsExposition checks the coordinator's GET /metrics carries
// the per-shard sub-request telemetry.
func TestClusterMetricsExposition(t *testing.T) {
	lc, ts := startLocal(t, 3, server.Options{MaxWorkers: 4}, Options{})
	if _, err := lc.Coordinator.Create(t.Context(), "g", server.MemoryRaw, "test", testGraph(t), 1); err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, ts.URL+"/v1/graphs/g/degrees?seed=1&workers=1"); code != http.StatusOK {
		t.Fatalf("degrees status %d: %s", code, body)
	}

	code, metrics := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	text := string(metrics)
	for _, want := range []string{
		"# TYPE slimgraph_shard_request_seconds histogram",
		`slimgraph_shard_request_seconds_bucket{shard="0",le="+Inf"}`,
		`slimgraph_shard_request_seconds_bucket{shard="2",le="+Inf"}`,
		`slimgraph_shard_requests_total{shard="1"}`,
		`slimgraph_shard_up{shard="0"} 1`,
		`slimgraph_shard_inflight{shard="0"} 0`,
		"slimgraph_cluster_subrequest_seconds_count",
		`slimgraph_http_requests_total{endpoint="GET /v1/graphs/{name}/degrees",status="200"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("exposition was:\n%s", text)
	}
}

// TestInstrumentWhileProbing: the prober NewCoordinator starts may probe a
// shard before Instrument installs the telemetry, and the two must not
// race. The sleeps are the point — any signal from the prober to this
// goroutine would order the accesses and hide a race from -race.
func TestInstrumentWhileProbing(t *testing.T) {
	shard := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	defer shard.Close()
	coord, err := NewCoordinator(Options{Shards: []string{shard.URL}, ProbeInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	coord.Instrument(obs.NewRegistry())
	time.Sleep(20 * time.Millisecond)
	coord.Close()
}

// TestReplicasKeepNoArena: a replica's exact count builds its triangle CSR
// for the query and keeps none, where a single node caches one per graph.
// Every replica serves exact counts here (the rotation hands each one a
// query per round), and none holds an arena afterwards.
func TestReplicasKeepNoArena(t *testing.T) {
	const u = "/v1/graphs/g/triangles?seed=42&workers=1"
	single := mustServer(t, server.Options{MaxWorkers: 4})
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	if err := single.AddGraph("g", server.MemoryRaw, "test", testGraph(t), 1); err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, sts.URL+u); code != http.StatusOK {
		t.Fatalf("single node: status %d: %s", code, body)
	}
	if b := metricValue(t, sts.URL, "slimgraph_catalog_arena_bytes"); b == 0 {
		t.Fatal("a single node's exact count kept no arena; the gauge cannot tell a replica apart")
	}

	lc, ts := startLocal(t, 3, server.Options{MaxWorkers: 4}, Options{})
	if _, err := lc.Coordinator.Create(t.Context(), "g", server.MemoryRaw, "test", testGraph(t), 1); err != nil {
		t.Fatal(err)
	}
	for range 2 * lc.NumShards() {
		if code, body := get(t, ts.URL+u); code != http.StatusOK {
			t.Fatalf("cluster: status %d: %s", code, body)
		}
	}
	for i := range lc.NumShards() {
		if n := metricValue(t, lc.Addr(i), `slimgraph_http_requests_total{endpoint="GET /v1/graphs/{name}/triangles",status="200"}`); n != 2 {
			t.Errorf("shard %d served %v exact counts, want 2", i, n)
		}
		if b := metricValue(t, lc.Addr(i), "slimgraph_catalog_arena_bytes"); b != 0 {
			t.Errorf("shard %d keeps a %v-byte triangle arena, want none", i, b)
		}
		if n := metricValue(t, lc.Addr(i), "slimgraph_triangle_engine_builds_total"); n != 0 {
			t.Errorf("shard %d built %v cached arenas, want 0", i, n)
		}
	}
}

// TestClientHangUpLeavesShardUp: a client that gives up on a query says
// nothing about the shard serving it, whether it hangs up or the deadline it
// propagated in X-Slimgraph-Deadline passes (answered with a 504 naming
// that deadline, not a 502 naming the replica). Each abandoned sub-request
// counts, but the shard's failure count, its up gauge and its breaker stay
// as they were, over as many abandoned queries as open a breaker. So such
// clients never mark a hung shard down; the queries that then run out
// ShardTimeout on it do, and open its breaker.
func TestClientHangUpLeavesShardUp(t *testing.T) {
	for _, tc := range []struct {
		name string
		// send sends the query and gives up on it after 100ms; answers
		// says whether the client still reads a reply (the coordinator's
		// own error for the expired deadline) or none at all.
		send    func(url string) (*http.Response, error)
		answers bool
	}{
		{"hang-up", func(url string) (*http.Response, error) {
			return (&http.Client{Timeout: 100 * time.Millisecond}).Get(url)
		}, false},
		{"propagated deadline", func(url string) (*http.Response, error) {
			req, err := http.NewRequest(http.MethodGet, url, nil)
			if err != nil {
				return nil, err
			}
			req.Header.Set(resilience.DeadlineHeader, resilience.FormatDeadline(time.Now().Add(100*time.Millisecond)))
			return (&http.Client{Timeout: 5 * time.Second}).Do(req)
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			slow := resilience.NewInjector(&resilience.FaultRule{Path: "/bfs", Action: resilience.FaultDelay, Delay: 2 * time.Second})
			lc, ts := startLocal(t, 1, server.Options{MaxWorkers: 4}, Options{
				ShardTimeout: 300 * time.Millisecond,
				Client:       &http.Client{Transport: slow.RoundTripper(http.DefaultTransport)},
			})
			if _, err := lc.Coordinator.Create(t.Context(), "g", server.MemoryRaw, "test", testGraph(t), 1); err != nil {
				t.Fatal(err)
			}
			reg, shard := lc.Front.Registry(), obs.Label{Key: "shard", Value: "0"}
			requests := reg.Counter("slimgraph_shard_requests_total", "", shard)
			failures := reg.Counter("slimgraph_shard_failures_total", "", shard)
			up := reg.Gauge("slimgraph_shard_up", "", shard)
			for q := range 3 { // the default breaker threshold
				sent := requests.Value()
				resp, err := tc.send(ts.URL + "/v1/graphs/g/bfs?root=0&seed=1&workers=1")
				if err == nil {
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if !tc.answers || resp.StatusCode == http.StatusOK {
						t.Fatalf("query %d: a query held 2s answered within the client's 100ms: status %d", q, resp.StatusCode)
					}
					// The client's deadline ended the query: a 504 naming it,
					// not a 502 naming the healthy replica.
					if resp.StatusCode != http.StatusGatewayTimeout || !strings.Contains(string(body), "request deadline ") ||
						!strings.Contains(string(body), " passed before a replica answered") {
						t.Errorf("query %d: the expired deadline answered %d %s, want a 504 naming the request deadline", q, resp.StatusCode, body)
					}
				} else if tc.answers {
					t.Fatalf("query %d: the coordinator did not answer the expired deadline: %v", q, err)
				}
				for deadline := time.Now().Add(5 * time.Second); requests.Value() == sent; time.Sleep(5 * time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("query %d: the coordinator never finished the abandoned sub-request", q)
					}
				}
				if n, u, b := failures.Value(), up.Value(), lc.Coordinator.BreakerState(0); n != 0 || u != 1 || b != resilience.BreakerClosed {
					t.Errorf("after %d abandoned queries: failures=%d up=%v breaker=%v, want 0, 1, closed", q+1, n, u, b)
				}
				if got := requests.Value() - sent; got != 1 {
					t.Errorf("abandoned query %d counted %d sub-requests, want 1", q, got)
				}
			}
			for q := range 3 {
				if code, body := get(t, ts.URL+"/v1/graphs/g/bfs?root=0&seed=1&workers=1"); code != http.StatusBadGateway {
					t.Fatalf("query %d with no deadline of its own: status %d: %s, want 502", q, code, body)
				}
			}
			if n, b := failures.Value(), lc.Coordinator.BreakerState(0); n != 3 || b != resilience.BreakerOpen {
				t.Errorf("after 3 queries that ran out ShardTimeout: failures=%d breaker=%v, want 3, open", n, b)
			}
		})
	}
}
