package cluster

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"slimgraph/internal/obs"
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
			path, _ := line["path"].(string)
			if !strings.HasSuffix(path, "/whole/bfs") {
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

// TestRelaysRotateAcrossReplicas pins the spread of whole queries: as many
// requests in a row as there are shards, of each kind that runs whole on one
// replica, reach every live shard. It counts each shard's own requests to its
// /whole/ routes (slimgraph_http_requests_total by endpoint): a query with a
// spec first replicates its variant to every shard, so the coordinator's
// per-shard sub-request totals would grow everywhere regardless.
func TestRelaysRotateAcrossReplicas(t *testing.T) {
	lc, ts := startLocal(t, 3, server.Options{MaxWorkers: 4}, Options{})
	if _, err := lc.Coordinator.Create(t.Context(), "g", server.MemoryRaw, "test", testGraph(t), 1); err != nil {
		t.Fatal(err)
	}
	wholeRequests := func() []float64 {
		t.Helper()
		out := make([]float64, lc.NumShards())
		for i := range out {
			code, text := get(t, lc.Addr(i)+"/metrics")
			if code != http.StatusOK {
				t.Fatalf("shard %d metrics status %d", i, code)
			}
			for _, line := range strings.Split(string(text), "\n") {
				if !strings.HasPrefix(line, `slimgraph_http_requests_total{endpoint="POST /internal/v1/graphs/{name}/whole/`) {
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
		"/v1/graphs/g/triangles?mode=approx&p=0.5&seed=42&workers=1",
		"/v1/graphs/g/compare?spec=uniform:p=0.5&seed=42&workers=1",
	} {
		before := wholeRequests()
		for range lc.NumShards() {
			if code, body := get(t, ts.URL+u); code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", u, code, body)
			}
		}
		after := wholeRequests()
		for i := range before {
			if after[i] != before[i]+1 {
				t.Errorf("%s: shard %d served %v of %d whole requests in a row, want 1 each",
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
