package main

import "strings"

// Workload names, in the order the harness runs them.
const (
	wBatch   = "batch-compress"
	wMapped  = "serve-mapped"
	wChurn   = "serve-churn"
	wCluster = "cluster3"
)

var workloadNames = []string{wBatch, wMapped, wChurn, wCluster}

// workloadWhy is the one-line reason each workload exists; BENCHMARK.json
// carries the same text.
var workloadWhy = map[string]string{
	wBatch:   "offline pipeline: schemes, core, graph and raw-CSR kernels do the work; server, cluster and packed decode do none; the only intra-op parallelism",
	wMapped:  "read-only queries on memory-mapped packed graphs after a restart: succinct decode, kernels, handler, JSON, obs; hot variant cache, no writes",
	wChurn:   "writes beside reads under a memory budget: compress misses, LRU evictions, variant spills, uploads and deletes through the same catalog, cache and tier",
	wCluster: "coordinator over three raw shards: scatter/gather, wire format and resilience wrappers dominate; packed decode is bypassed",
}

// metric declares one named number the harness reports.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the allowed worsening of the median, as a share, that
	// -compare applies; 0 for per-layer metrics. BoundOn overrides it on
	// single workloads.
	Bound   float64
	BoundOn map[string]float64
	// DriverBound is the bound BENCHMARK.json declares, for the metrics every
	// workload reports; 0 keeps the metric out of BENCHMARK.json. It is wider
	// than Bound where this host's run-to-run spread over ten seeds demands
	// it: the PR driver has no "unresolved" verdict to absorb noise with.
	DriverBound float64
	// On lists the workloads that report the metric; nil means all four.
	On []string
	// Absolute marks a metric whose bound is an absolute difference (its
	// healthy value is 0, so a share of the median means nothing).
	Absolute bool
}

func (m metric) reportedOn(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

func (m metric) boundOn(workload string) float64 {
	if b, ok := m.BoundOn[workload]; ok {
		return b
	}
	return m.Bound
}

// Workload sets the issue's "reported on" column names.
var (
	servedAll    = []string{wMapped, wChurn, wCluster}
	singleNode   = []string{wMapped, wChurn}
	readOnly     = []string{wMapped, wCluster}
	writesBeside = []string{wChurn}
)

// endToEnd is what a user of the system sees: the issue's fifteen, each on
// the workloads that have it. The PR driver wants every declared metric on
// every workload, never 0, and with a spread over ten seeds inside a bound
// of at most 25%, so only seven carry a DriverBound. failed_share is 0 when
// healthy (it reaches the driver as the "failed" count). The class
// latencies exist on some workloads only, and the reference box has slow
// periods, a minute or two long, in which every kernel takes a third
// longer: three such runs among ten put a latency median's spread at 33%,
// which no bound the driver allows would survive, while throughput loses a
// fifth and stays inside 25%.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.20, DriverBound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, DriverBound: 0.25},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0, Absolute: true},
	{Name: "bfs_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: servedAll},
	{Name: "bfs_p95_ms", Unit: "ms", Better: "lower", Bound: 0.15, On: singleNode},
	{Name: "degrees_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: readOnly},
	{Name: "pagerank_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: readOnly},
	{Name: "triangles_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: readOnly},
	{Name: "compress_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: writesBeside},
	{Name: "create_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15, On: writesBeside},
	{Name: "resident_mb", Unit: "MiB", Better: "lower", Bound: 0.02, BoundOn: map[string]float64{wChurn: 0.10}, DriverBound: 0.10},
	{Name: "bits_per_edge", Unit: "bit", Better: "lower", Bound: 0.005, DriverBound: 0.005},
	{Name: "kl_pagerank", Unit: "bit", Better: "lower", Bound: 0.01, DriverBound: 0.01},
	{Name: "triangle_rel_err", Unit: "ratio", Better: "lower", Bound: 0.01, DriverBound: 0.01},
	{Name: "bfs_retention", Unit: "ratio", Better: "higher", Bound: 0.01, DriverBound: 0.01},
}

// latencyClasses are the operation classes that feed a <class>_p50_ms.
var latencyClasses = []string{"bfs", "degrees", "pagerank", "triangles", "compress", "create"}

// driverMetrics are the end-to-end metrics BENCHMARK.json declares.
func driverMetrics() []metric {
	var out []metric
	for _, m := range endToEnd {
		if m.DriverBound > 0 {
			out = append(out, m)
		}
	}
	return out
}

var (
	schemeSpecs = []string{"uniform:p=0.5", "spanner:k=8", "tr-eo:p=0.8", "spectral:p=0.5"}
	schemeKeys  = []string{"uniform", "spanner", "tr-eo", "spectral"}
	queryKinds  = []string{"bfs", "degrees", "pagerank", "triangles"}
)

// perLayer lists every single-layer metric, grouped by the package it
// measures. Units follow the name's suffix.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	var out []metric
	add := func(better string, names ...string) {
		for _, n := range names {
			out = append(out, metric{Name: n, Unit: unitOf(n), Better: better})
		}
	}
	lower := func(names ...string) { add("lower", names...) }
	higher := func(names ...string) { add("higher", names...) }

	lower("gen.rmat14_ms", "gen.grid128_ms", "graph.build_ms", "graph.filter_ms")
	for _, k := range schemeKeys {
		lower("schemes."+k+"_rmat14_ms", "schemes."+k+"_grid128_ms")
	}
	for _, k := range schemeKeys {
		higher("schemes." + k + "_edge_reduction")
		lower("schemes."+k+"_kl_pagerank", "schemes."+k+"_triangle_rel_err")
		higher("schemes." + k + "_bfs_retention")
	}
	lower("succinct.pack_ms", "succinct.unpack_ms", "succinct.bits_per_edge", "succinct.payload_bits_per_edge",
		"succinct.write_servable_ms", "succinct.open_us", "succinct.scan_raw_ns_per_arc", "succinct.scan_packed_ns_per_arc",
		"succinct.degree_packed_ns_per_vertex", "succinct.encode_ns_per_gap", "succinct.decode_ns_per_gap")
	lower("graphio.write_binary_ms", "graphio.read_binary_ms", "graphio.write_packed_ms", "graphio.read_packed_ms")
	lower("traverse.bfs_raw_ms", "traverse.bfs_packed_ms", "traverse.bfs_mapped_ms",
		"traverse.bfs_grid_raw_ms", "traverse.bfs_grid_packed_ms")
	lower("centrality.pagerank_raw_ms", "centrality.pagerank_packed_ms", "centrality.pagerank_mapped_ms", "centrality.pagerank_iters")
	lower("triangles.engine_build_raw_ms", "triangles.engine_build_packed_ms", "triangles.count_raw_ms",
		"triangles.count_packed_ms", "triangles.approx_raw_ms", "triangles.approx_packed_ms")
	lower("metrics.degrees_raw_us", "metrics.degrees_packed_us", "metrics.compare_raw_ms", "metrics.compare_packed_ms", "metrics.degree_distance")
	for _, rung := range []string{"local", "handler", "http"} {
		for _, q := range queryKinds {
			lower("server." + rung + "_" + q + "_ms")
		}
	}
	lower("server.bfs_response_bytes", "server.bfs_p99_ms", "server.bfs_grid_p50_ms", "server.bfs_variant_p50_ms", "server.attach_us")
	higher("server.cache_hits")
	lower("server.cache_misses", "server.cache_executions")
	higher("server.cache_hit_ratio")
	lower("server.admission_rejected", "server.tier_graph_spills", "server.tier_graph_faultins",
		"server.tier_variant_spills", "server.tier_variant_faultins")
	lower("obs.middleware_us", "obs.http_bfs_p50_ms", "obs.client_gap_ms")
	for _, c := range []string{"coord1", "coord3"} {
		for _, q := range queryKinds {
			lower("cluster." + c + "_" + q + "_ms")
		}
	}
	lower("cluster.coord3_bfs_grid_ms", "cluster.bfs_grid_p50_ms", "cluster.subrequests_per_op",
		"cluster.subrequest_p50_ms", "cluster.create_replicate_ms")
	lower("resilience.shard_failures", "resilience.breakers_not_closed", "resilience.pending_repairs")
	higher("parallel.speedup_bfs", "parallel.speedup_tr-eo", "parallel.speedup_pack")
	lower("harness.trace_overhead_pct", "harness.reference_s", "harness.heap_inuse_mb", "harness.gc_pause_ms")
	return out
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	suffixes := []struct{ suffix, unit string }{
		{"_ns_per_arc", "ns"}, {"_ns_per_vertex", "ns"}, {"_ns_per_gap", "ns"},
		{"_ms", "ms"}, {"_us", "us"}, {"_s", "s"}, {"_mb", "MiB"}, {"_pct", "%"},
		{"bits_per_edge", "bit"}, {"_kl_pagerank", "bit"}, {"_bytes", "B"},
		{"_ratio", "ratio"}, {"_edge_reduction", "ratio"}, {"_triangle_rel_err", "ratio"},
		{"_bfs_retention", "ratio"}, {"degree_distance", "ratio"}, {"_per_op", "count"},
	}
	for _, s := range suffixes {
		if strings.HasSuffix(name, s.suffix) {
			return s.unit
		}
	}
	if strings.HasPrefix(name, "parallel.speedup_") {
		return "ratio"
	}
	return "count"
}
