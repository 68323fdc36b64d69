package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"slimgraph/internal/obs"
)

// runResult is one run of one workload: either the untraced run that yields
// the end-to-end metrics or the traced run that yields the per-layer ones.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Seconds   float64            `json:"seconds"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	Notes     []string           `json:"notes,omitempty"`
	// TraceGap is the traced run's largest relative difference between an
	// operation's client span and the sum of its spans' self times.
	TraceGap float64 `json:"trace_gap,omitempty"`
}

// workload is what the runner needs from batch and served alike.
type workload interface {
	// reference does the harness's own work: expected answers and exact
	// metrics. It is timed apart from set-up.
	reference() error
	// setUp brings the system to its warm state; tearDown undoes it.
	setUp() error
	tearDown()
	// pass runs the timed loop for dur.
	pass(dur time.Duration, tr *tracer) (*phaseResult, error)
	// finish collects what is read after the timed pass (residency, stored
	// bits, accuracy) into the end-to-end metrics.
	finish(res *phaseResult, m map[string]float64) error
	// counters snapshots the workload-scoped per-layer readings.
	counters() (layerCounters, error)
	// breakGate corrupts one expected answer, so that a run proves the
	// correctness gate trips.
	breakGate()
}

func newWorkload(cfg config, name string) (workload, error) {
	switch name {
	case wBatch:
		return &batch{cfg: cfg}, nil
	case wMapped, wChurn, wCluster:
		return newServed(cfg, name), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// layerCounters are the readings the traced run takes before and after its
// passes from the registries the servers themselves expose.
type layerCounters struct {
	engine       map[string]float64 // summed over every Local engine
	front        map[string]float64
	httpBFS      obs.HistogramSnapshot
	subrequests  obs.HistogramSnapshot
	breakersOpen float64
}

const bfsRoute = "GET /v1/graphs/{name}/bfs"

func (s *served) counters() (layerCounters, error) {
	t := s.tgt
	c := layerCounters{engine: map[string]float64{}}
	for _, reg := range t.engines {
		vals, err := scrape(reg)
		if err != nil {
			return c, err
		}
		for k, v := range vals {
			c.engine[k] += v
		}
	}
	var err error
	if c.front, err = scrape(t.front); err != nil {
		return c, err
	}
	c.httpBFS, _ = t.front.HistogramSnapshotOf("slimgraph_http_request_seconds", obs.Label{Key: "endpoint", Value: bfsRoute})
	c.subrequests, _ = t.front.HistogramSnapshotOf("slimgraph_cluster_subrequest_seconds")
	for k, v := range c.front {
		if strings.HasPrefix(k, "slimgraph_shard_breaker_state{") && v != 0 {
			c.breakersOpen++
		}
	}
	return c, nil
}

// --- the two kinds of run ------------------------------------------------------------

// runUntraced measures the end-to-end metrics: reference, setupRepeats
// set-ups (the median is setup_s, the last one is kept), one timed pass of
// cfg.seconds with tracing off, then the post-pass readings.
func runUntraced(cfg config, name string) (*runResult, error) {
	w, err := newWorkload(cfg, name)
	if err != nil {
		return nil, err
	}
	if err := w.reference(); err != nil {
		return nil, fmt.Errorf("%s reference: %w", name, err)
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.tearDown()
		}
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			w.tearDown()
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.tearDown()
	if cfg.breakGate {
		w.breakGate()
	}
	runtime.GC() // set-up's garbage is not the timed pass's to collect
	res, err := w.pass(time.Duration(cfg.seconds*float64(time.Second)), nil)
	if err != nil {
		return nil, fmt.Errorf("%s timed pass: %w", name, err)
	}
	m := map[string]float64{"setup_s": median(setups), "ops_per_s": res.opsPerS()}
	if err := w.finish(res, m); err != nil {
		return nil, fmt.Errorf("%s post-pass readings: %w", name, err)
	}
	for _, class := range latencyClasses {
		if len(res.lat[class]) > 0 {
			m[class+"_p50_ms"] = res.p50(class)
		}
	}
	if bfs := res.sorted("bfs"); supports(len(bfs), 0.95) {
		m["bfs_p95_ms"] = percentile(bfs, 0.95)
	}
	m["failed_share"] = float64(res.failed) / float64(max(res.attempted, 1))
	out := &runResult{Workload: name, Seed: cfg.seed, Seconds: cfg.seconds,
		Attempted: res.attempted, Failed: res.failed, Metrics: map[string]float64{}, Samples: res.samples(), Notes: res.notes}
	for _, em := range endToEnd {
		if !em.reportedOn(name) {
			continue
		}
		v, ok := m[em.Name]
		// A healthy run reports every metric of its workload; bfs_p95_ms
		// alone depends on the sample count. (A class whose every answer
		// failed has no latency to report.)
		if !ok && res.failed == 0 && em.Name != "bfs_p95_ms" {
			return nil, fmt.Errorf("%s did not produce %s", name, em.Name)
		}
		if ok {
			out.Metrics[em.Name] = v
		}
	}
	return out, nil
}

// runTraced measures the per-layer metrics: one set-up, a pass with tracing
// off and a pass with tracing on (a sixth of cfg.seconds each; their
// throughput difference is the tracing overhead), the workload-scoped
// counters around both, then the layer ladder. It writes the spans to
// <out>/<workload>.trace.json.
func runTraced(cfg config, name string) (*runResult, error) {
	w, err := newWorkload(cfg, name)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := w.reference(); err != nil {
		return nil, fmt.Errorf("%s reference: %w", name, err)
	}
	referenceS := time.Since(t0).Seconds()
	if err := w.setUp(); err != nil {
		w.tearDown()
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	before, err := w.counters()
	if err != nil {
		w.tearDown()
		return nil, err
	}
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	dur := time.Duration(cfg.seconds / 6 * float64(time.Second))
	tr := newTracer()
	plain, err := w.pass(dur, nil)
	var traced *phaseResult
	if err == nil {
		traced, err = w.pass(dur, tr)
	}
	if err != nil {
		w.tearDown()
		return nil, fmt.Errorf("%s traced pass: %w", name, err)
	}
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	after, err := w.counters()
	w.tearDown()
	if err != nil {
		return nil, err
	}

	m := map[string]float64{}
	both := newPhaseResult()
	both.merge(plain)
	both.merge(traced)
	workloadLayerMetrics(name, both, before, after, m)
	m["harness.trace_overhead_pct"] = 100 * (plain.opsPerS() - traced.opsPerS()) / plain.opsPerS()
	m["harness.heap_inuse_mb"] = mib(float64(mem1.HeapInuse))
	m["harness.gc_pause_ms"] = ms(int64(mem1.PauseTotalNs - mem0.PauseTotalNs))
	workloadSpans := tr.snapshot()
	if err := runLadder(cfg, tr, m); err != nil {
		return nil, fmt.Errorf("layer ladder: %w", err)
	}
	m["harness.reference_s"] = referenceS + both.referenceS
	if err := writeTrace(filepath.Join(cfg.outDir, name+".trace.json"), tr.snapshot()); err != nil {
		return nil, err
	}
	return &runResult{Workload: name, Seed: cfg.seed, Traced: true, Seconds: cfg.seconds,
		Attempted: both.attempted, Failed: both.failed, Metrics: m, Samples: both.samples(), Notes: both.notes,
		TraceGap: selfTimeGap(workloadSpans)}, nil
}

// workloadLayerMetrics derives the per-layer metrics that describe this
// workload's passes rather than the ladder: counters the servers expose,
// read before and after, and class latencies. A layer the workload does not
// have (no server in batch-compress, no coordinator on one node) reads 0:
// nothing was counted there.
func workloadLayerMetrics(name string, res *phaseResult, before, after layerCounters, m map[string]float64) {
	engine := func(key string) float64 { return sumPrefix(after.engine, key) - sumPrefix(before.engine, key) }
	front := func(key string) float64 { return sumPrefix(after.front, key) - sumPrefix(before.front, key) }
	hits, misses := engine("slimgraph_cache_hits_total"), engine("slimgraph_cache_misses_total")
	m["server.cache_hits"] = hits
	m["server.cache_misses"] = misses
	m["server.cache_executions"] = engine("slimgraph_cache_executions_total")
	m["server.cache_hit_ratio"] = 0
	if hits+misses > 0 {
		m["server.cache_hit_ratio"] = hits / (hits + misses)
	}
	m["server.admission_rejected"] = front("slimgraph_admission_rejected_total")
	m["server.tier_graph_spills"] = engine("slimgraph_catalog_tier_graph_spills_total")
	m["server.tier_graph_faultins"] = engine("slimgraph_catalog_tier_graph_faultins_total")
	m["server.tier_variant_spills"] = engine("slimgraph_catalog_tier_variant_spills_total")
	m["server.tier_variant_faultins"] = engine("slimgraph_catalog_tier_variant_faultins_total")

	// Class latencies of the passes; a class the workload lacks reads 0.
	m["server.bfs_p99_ms"] = percentile(res.sorted("bfs"), 0.99)
	m["server.bfs_variant_p50_ms"] = res.p50("bfs-variant")
	m["server.bfs_grid_p50_ms"], m["cluster.bfs_grid_p50_ms"] = res.p50("bfs-grid"), 0
	if name == wCluster {
		m["server.bfs_grid_p50_ms"], m["cluster.bfs_grid_p50_ms"] = 0, res.p50("bfs-grid")
	}

	// The server's own histogram of the bfs route against what the clients
	// saw on the same requests (bfs, bfs-variant and bfs-grid share it).
	serverSide := 1e3 * histQuantile(histDelta(after.httpBFS, before.httpBFS), 0.5)
	var client []float64
	for _, class := range []string{"bfs", "bfs-variant", "bfs-grid"} {
		client = append(client, res.lat[class]...)
	}
	m["obs.http_bfs_p50_ms"] = serverSide
	m["obs.client_gap_ms"] = median(client) - serverSide

	sub := histDelta(after.subrequests, before.subrequests)
	m["cluster.subrequests_per_op"] = front("slimgraph_shard_requests_total") / float64(max(res.attempted, 1))
	m["cluster.subrequest_p50_ms"] = 1e3 * histQuantile(sub, 0.5)
	m["resilience.shard_failures"] = front("slimgraph_shard_failures_total")
	m["resilience.breakers_not_closed"] = after.breakersOpen
	m["resilience.pending_repairs"] = sumPrefix(after.front, "slimgraph_shard_pending_repairs")
}
