package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
)

// TestMetricsEndToEnd drives real traffic through a standalone server and
// checks GET /metrics reflects it: per-endpoint latency histograms, variant
// cache counters, catalog residency gauges, and compress-execution timing.
func TestMetricsEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{CacheCapacity: 8})
	createCommunities(t, ts.URL, "m", 300, 1, MemoryRaw)

	// Two identical BFS queries: the first executes the compression, the
	// second hits the variant cache.
	for i := 0; i < 2; i++ {
		code, body := get(t, ts.URL+"/v1/graphs/m/bfs?root=0&spec=uniform:p=0.5&seed=1")
		mustStatus(t, http.StatusOK, code, body)
	}
	code, body := get(t, ts.URL+"/v1/graphs/absent")
	mustStatus(t, http.StatusNotFound, code, body)

	code, metrics := get(t, ts.URL+"/metrics")
	mustStatus(t, http.StatusOK, code, metrics)
	text := string(metrics)

	for _, want := range []string{
		`slimgraph_http_requests_total{endpoint="GET /v1/graphs/{name}/bfs",status="200"} 2`,
		`slimgraph_http_requests_total{endpoint="GET /v1/graphs/{name}",status="404"} 1`,
		`slimgraph_http_request_seconds_bucket{endpoint="GET /v1/graphs/{name}/bfs",le="+Inf"} 2`,
		`slimgraph_cache_hits_total 1`,
		`slimgraph_cache_misses_total 1`,
		`slimgraph_cache_executions_total 1`,
		`slimgraph_catalog_graphs 1`,
		`slimgraph_compress_seconds_count{scheme="uniform"} 1`,
		`slimgraph_ready 1`,
		"# TYPE slimgraph_http_request_seconds histogram",
		"slimgraph_goroutines ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("exposition was:\n%s", text)
	}
	// Raw residency gauge reflects the loaded graph.
	if strings.Contains(text, "slimgraph_catalog_raw_bytes 0\n") {
		t.Fatalf("raw residency gauge is zero with a raw graph resident:\n%s", text)
	}
}

// TestStatsUptimeAndBuild pins the satellite fields on /v1/stats.
func TestStatsUptimeAndBuild(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, body := get(t, ts.URL+"/v1/stats")
	mustStatus(t, http.StatusOK, code, body)
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.UptimeSeconds <= 0 {
		t.Fatalf("uptimeSeconds = %v, want > 0", st.UptimeSeconds)
	}
	if st.Build == nil || st.Build.GoVersion == "" {
		t.Fatalf("build info missing: %+v", st.Build)
	}
}

// TestCompressStageTimings checks a pipeline compress response carries one
// timing per stage and the per-stage times sum to the total.
func TestCompressStageTimings(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	createCommunities(t, ts.URL, "p", 400, 2, MemoryRaw)

	code, body := postJSON(t, ts.URL+"/v1/graphs/p/compress", map[string]any{
		"spec": "uniform:p=0.9|spanner:k=4", "seed": 7,
	})
	mustStatus(t, http.StatusOK, code, body)
	var resp CompressResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Stages) != 2 {
		t.Fatalf("stages = %+v, want 2 entries", resp.Stages)
	}
	if !strings.HasPrefix(resp.Stages[0].Spec, "uniform") || !strings.HasPrefix(resp.Stages[1].Spec, "spanner") {
		t.Fatalf("stage specs = %q, %q", resp.Stages[0].Spec, resp.Stages[1].Spec)
	}
	sum := 0.0
	for _, st := range resp.Stages {
		if st.ElapsedMS < 0 {
			t.Fatalf("negative stage time: %+v", st)
		}
		if st.M < 0 || st.M > resp.InputM {
			t.Fatalf("stage output edges %d out of range [0, %d]", st.M, resp.InputM)
		}
		sum += st.ElapsedMS
	}
	// Stage times are truncated to microseconds each, so allow that slack
	// plus float noise against the total.
	if diff := math.Abs(sum - resp.ElapsedMS); diff > 0.002*float64(len(resp.Stages))+1e-9 {
		t.Fatalf("stage times sum to %v ms, total is %v ms", sum, resp.ElapsedMS)
	}
	if resp.Stages[1].M != resp.M {
		t.Fatalf("last stage M %d != response M %d", resp.Stages[1].M, resp.M)
	}

	// A single-scheme compress reports exactly one stage.
	code, body = postJSON(t, ts.URL+"/v1/graphs/p/compress", map[string]any{
		"spec": "uniform:p=0.5", "seed": 7,
	})
	mustStatus(t, http.StatusOK, code, body)
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Stages) != 1 {
		t.Fatalf("single-scheme stages = %+v, want 1 entry", resp.Stages)
	}
}

// TestReadyGaugeTracksReadiness flips readiness and watches the
// slimgraph_ready gauge follow /readyz.
func TestReadyGaugeTracksReadiness(t *testing.T) {
	s, ts := newTestServer(t, Options{})

	gaugeValue := func() string {
		_, metrics := get(t, ts.URL+"/metrics")
		for _, line := range strings.Split(string(metrics), "\n") {
			if strings.HasPrefix(line, "slimgraph_ready ") {
				return strings.TrimPrefix(line, "slimgraph_ready ")
			}
		}
		t.Fatalf("slimgraph_ready not exposed:\n%s", metrics)
		return ""
	}

	s.SetNotReady("draining")
	code, body := get(t, ts.URL+"/readyz")
	mustStatus(t, http.StatusServiceUnavailable, code, body)
	if v := gaugeValue(); v != "0" {
		t.Fatalf("ready gauge = %s while not ready", v)
	}
	s.SetReady()
	code, body = get(t, ts.URL+"/readyz")
	mustStatus(t, http.StatusOK, code, body)
	if v := gaugeValue(); v != "1" {
		t.Fatalf("ready gauge = %s while ready", v)
	}
}

// BenchmarkMiddlewareOverhead measures the observability tax on the hottest
// cheap path: a BFS query answered from a warmed variant cache. It reports
// both the instrumented handler and the bare mux so the delta is visible in
// one run; the acceptance bar is < 3% (the absolute cost is the
// obs.middleware_us rung of the benchmark/ ladder).
func BenchmarkMiddlewareOverhead(b *testing.B) {
	bench := func(b *testing.B, instrumented bool) {
		s, err := New(Options{CacheCapacity: 8})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.AddGenerated("g", "communities", 0, 0, 20000, 1, false, MemoryRaw, 0); err != nil {
			b.Fatal(err)
		}
		var h http.Handler = s.mux
		if instrumented {
			h = s.Handler()
		}
		req, _ := http.NewRequest("GET", "/v1/graphs/g/bfs?root=0&spec=uniform:p=0.5&seed=1", nil)
		// Warm the variant cache so iterations measure dispatch + cached
		// query, not compression.
		w := &discardResponseWriter{h: http.Header{}}
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("warmup status %d", w.code)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := &discardResponseWriter{h: http.Header{}}
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Fatalf("status %d", w.code)
			}
		}
	}
	b.Run("bare", func(b *testing.B) { bench(b, false) })
	b.Run("instrumented", func(b *testing.B) { bench(b, true) })
}

// discardResponseWriter avoids httptest.NewRecorder's body buffering so the
// benchmark measures the handler, not recorder allocations.
type discardResponseWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardResponseWriter) Header() http.Header { return w.h }
func (w *discardResponseWriter) WriteHeader(c int) {
	if w.code == 0 {
		w.code = c
	}
}
func (w *discardResponseWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}
