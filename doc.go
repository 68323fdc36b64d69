// Package slimgraph is a practical lossy graph compression framework for
// approximate graph processing, storage, and analytics — a from-scratch Go
// reproduction of "Slim Graph: Practical Lossy Graph Compression for
// Approximate Graph Processing, Storage, and Analytics" (Besta et al.,
// SC 2019).
//
// # Schemes, the registry, and pipelines
//
// Every compression scheme is a Scheme: an immutable, configured value with
// a Name, a canonical parameter string, and Apply. There is one way to build
// one — the spec string, through the registry:
//
//	s, err := ParseScheme("tr-eo:p=0.8|spanner:k=8", WithSeed(1))
//
// A stage is a registry name and that scheme's parameters ("uniform:p=0.5",
// "spectral:p=1,variant=avgdeg,reweight=true"); "|" chains stages into a
// Pipeline, which is itself a Scheme. WithSeed and WithWorkers are the only
// options: they are run settings every scheme accepts, everything else is a
// parameter. slimgraph -h and GET /v1/schemes list every name with its
// parameters and defaults.
//
// And there is one way to add one — a kernel plus a parameter table:
//
//	RegisterScheme(SchemeInfo{
//		Name:   "weakties",
//		About:  "drop edges in no triangle w.p. p",
//		Params: []SchemeParam{{Key: "p", Kind: ParamFloat, Default: "0.5", Min: 0, Max: 1}},
//		Apply: func(g AdjacencyEdges, a SchemeArgs) (*Result, error) {
//			sg := NewSG(g, a.Seed, a.Workers) // g: a Graph, or packed/mapped
//			... a.Float("p") ...
//			return &Result{Output: sg.Materialize()}, nil
//		},
//	})
//
// The registry does the rest from the table: it parses each key, checks it
// against the row's closed range or value list (NaN is inside no range; a
// key given twice, or not in the table, is an error that names it), fills
// defaults, prints the canonical spec in table order, and stamps the
// Result's labels and elapsed time. Adding a parameter to a scheme is one
// row. The kernel receives its input as an AdjacencyEdges, and there is one
// input path: every kernel — edge, vertex, triangle or subgraph — reads a
// PackedGraph or MappedGraph in place.
// examples/customkernel registers a three-kernel scheme this way.
//
// The registry (RegisterScheme, LookupScheme, SchemeNames) is the single
// dispatch point: both CLIs (cmd/slimgraph, cmd/slimbench) and the whole
// experiment harness resolve schemes through it, so registering a new
// scheme makes it addressable everywhere — specs, pipelines, sweeps, and
// batch comparisons — with no call-site edits. SchemeSpec returns the spec
// that ParseScheme round-trips.
//
// The built-in registry covers the paper's Table 2 and extensions: uniform
// and vertex sampling, spectral sparsification (log n and average-degree Υ),
// the Triangle Reduction family (basic, Edge-Once, Count-Triangles,
// max-weight, collapse, EO-redirect), low-degree removal (single pass and
// fixpoint), O(k)-spanners, Benczúr–Karger cut sparsification, and lossy
// ε-summarization.
//
// # Architecture
//
// Underneath the Scheme surface sit the three parts of the Slim Graph
// design:
//
//   - The programming model: compression kernels — small functions that
//     observe one vertex, edge, triangle, or subgraph and delete or
//     reweight elements — executed in parallel over the graph (NewSG and
//     the Run*Kernel methods). A custom kernel becomes a first-class scheme
//     by registering it with its parameter table (RegisterScheme): it is
//     handed the seed, the worker budget and its parsed parameters.
//
//   - The execution engine: compression runs as stage 1 (kernels mark
//     deletions atomically; Materialize rebuilds a compact CSR), and any
//     graph algorithm runs as stage 2 on the result. BFS, SSSP, PageRank,
//     betweenness centrality, connected components, triangle counting,
//     MST, coloring, matching, and independent sets are included. The
//     Table 3 properties are each measured by one algorithm
//     (internal/props): coloring, matching and independent set by one
//     greedy each, min cut by Stoer–Wagner, MST by Kruskal.
//
//   - The analytics subsystem: Kullback–Leibler divergence for
//     distribution-valued outputs (PageRank), reordered-pair counts for
//     ranking-valued outputs (centralities), BFS critical-edge retention
//     for Graph500-style outputs, and degree-distribution comparisons.
//
// # Storage
//
// The storage pillar composes the lossy schemes with a succinct lossless
// representation (internal/succinct). Three on-disk formats exist: text
// edge lists (WriteEdgeList), the v1 fixed-width binary snapshot
// (WriteBinary), and the v2 packed snapshot (WritePacked) — gap-encoded
// canonical adjacency behind a block directory, typically 3-5x smaller
// than v1. ReadSnapshot dispatches on the version tag. In memory,
// PackGraph produces a PackedGraph, a blocked bit-packed CSR that BFS,
// PageRank and every other algorithm taking an Adjacency run on in place,
// decoding neighbors on the fly — there is one implementation per
// algorithm, the same loop for a Graph and for a PackedGraph: on the
// benchmark's rmat14 graph packed BFS takes about 1.5x the raw-CSR time and
// packed PageRank, which decodes the in-lists once per call rather than once
// per iteration, about 1.1-1.2x, memory-mapped or on the heap (the traverse.*
// and centrality.* rungs of benchmark/README.md); Unpack restores a
// bit-identical Graph.
// Result.ComputeStorage reports both footprints and the combined
// lossy-times-lossless reduction after any compression run.
//
// A PackedGraph and both packed snapshot forms keep the vertex IDs of the
// graph they are given and store no permutation: on the benchmark's pinned
// graphs every pack-time order wrote a larger file than none once its
// permutation was paid for. A gap-minimizing locality ordering — degree,
// BFS discovery order, or a window-refined BFS order (Order, ParseOrder,
// ComputeOrder) — is the lossless "relabel:order=..." scheme instead, which
// composes into any compression pipeline, outputs the renumbered graph and
// carries the permutation in Result.VertexMap: "relabel:order=degree"
// shrinks the benchmark R-MAT graph's payload from 19.02 to 15.60 bits per
// edge. GapHistogram measures the encoded gap-width distribution a relabel
// shrinks. A snapshot whose header declares a stored permutation (flag 4)
// is refused by every reader.
//
// The servable image (WriteServable) is the packed form laid out for
// zero-copy serving: a fixed header plus 8-byte-aligned sections sized
// exactly by the header, so AttachServable overlays a PackedGraph on the
// raw bytes without a decode pass — and without copying any section on
// little-endian hosts. OpenServable memory-maps a servable file
// (MmapSupported reports the mechanism; off linux the image is read into
// the heap behind the identical API), returning a reference-counted
// MappedGraph whose munmap waits for the last Acquire holder.
// StatServable reads only the header, validating the file size against
// it, which is how a catalog registers snapshots at restart without
// touching their payloads.
//
// # Serving
//
// The serving layer (internal/server, run as cmd/slimgraphd or embedded
// via NewServer) turns the pipeline into a long-lived HTTP/JSON service: a
// catalog of named resident graphs — uploaded in any format or generated
// on demand, kept raw or packed per a memory policy — and query endpoints
// (BFS distances, PageRank top-k, exact or DOULION-approximate triangle
// counts, degree distributions, and CompareGraphs quality reports) over
// the original or any compressed variant. Variants live in an LRU cache
// keyed by (graph, canonical spec, seed) with single-flight deduplication:
// concurrent identical compress requests execute the scheme exactly once,
// and failures are never cached. Requests default to a one-worker budget,
// making responses byte-identical for a fixed seed.
//
// Every query resolves one target — the resident original (raw, packed or
// memory-mapped) or a cached variant — and hands it to the algorithm's one
// implementation, so packed-resident graphs serve on the packed form in
// place: BFS, PageRank, triangles, degrees, and the original side of
// compare all consume the PackedGraph's adjacency views directly, the
// count-only forward CSR (triangles.Forward: 16-bit lists where vertex IDs
// fit, 32-bit offsets, a work prefix per 64 vertices and hub rows only
// where a hub arc lands, about 20 bits per edge on a skewed graph) is built
// lazily once per catalog entry and reused across queries (its scratch —
// one stamp array per worker — belongs to the request, not the entry). Compression reads the
// entry in place as well: Scheme.Apply takes an AdjacencyEdges, and every
// kernel reads a packed or mapped graph's canonical edges, degrees and
// neighborhoods where they lie and builds only the variant's CSR. Unpack is
// reachable only from the three schemes that build a graph on a new vertex
// set — summarize, relabel and tr-collapse's contraction (graph.CSROf).
// Answers are byte-identical to a raw-resident catalog; the guarantee is
// pinned by a test that fails on any Unpack during query serving or a
// compress of a packed or mapped graph by any other scheme.
//
// With a data directory (slimgraphd -data-dir, ServerOptions.DataDir) the
// catalog is a two-tier store. Graphs persist as servable snapshots on
// create (temp file, fsync, rename — crashes never leave a torn snapshot
// under a final name), and a restart re-attaches every snapshot
// memory-mapped: no decode pass, no payload heap copy, first answers
// byte-identical to the previous process. A heap budget (-mem-budget,
// ServerOptions.MemBudget) spills least-recently-used graphs — and
// LRU-evicted cache variants — to the same directory, after which they
// serve mapped: graphs in place, and variants once faulted back in from
// disk instead of recomputed, as an attached mapping that a second eviction
// closes rather than rewrites. A cached variant is held, pinned and dropped
// exactly like a catalog graph, and a graph owns its spilled variants: a
// create clears any a predecessor of the same name left behind, and DELETE
// removes them before the graph's snapshot, deferring every munmap until
// in-flight queries drain. Residency (raw, packed, mapped) shows per graph
// on the catalog endpoints, with tier counters on /v1/stats and
// slimgraph_catalog_tier_* metrics.
//
// # Cluster
//
// The same API scales out (internal/cluster, run as slimgraphd -role
// coordinator|shard or in-process via NewLocalCluster): a coordinator
// serves /v1/graphs over N shard replicas, each holding the whole graph
// and each a plain single node, reached only through its public routes: a
// create uploads the packed snapshot to every replica's POST /v1/graphs,
// and a drop sends each one DELETE /v1/graphs/{name}. Every query — BFS, PageRank, degrees,
// triangles, compare — goes as one GET of the same public route to one
// replica, the replicas taking queries in turn, and the coordinator relays
// the replica's reply byte for byte; it runs no kernel and rebuilds no
// response. Replicated storage keeps the determinism contract intact
// (element-keyed scheme randomness needs the whole graph), so a cluster's
// responses are byte-identical to a single node's for a fixed seed at the
// same worker count, and one compress request populates every live
// replica's variant cache exactly once. A variant is never shipped between
// replicas: one that lacks it computes it on the first query that names
// it.
//
// # Resilience
//
// The fault-tolerance layer (internal/resilience) keeps that contract
// intact when shards misbehave. Every replica holds the same data, so the
// retry for a failed sub-request is another replica: each sub-request is
// one attempt under ClusterOptions.ShardTimeout, a query asks a replica
// again only after every live one failed it fast and never asks a hung
// one again, and per-shard circuit breakers (BreakerState;
// closed → open after consecutive failures, half-open probes after a
// cooldown) route traffic around a dead shard — opened proactively by a
// background /readyz prober when ClusterOptions.ProbeInterval is set. Degraded execution is
// lossless: a query fails over to the next live replica, which holds the
// same data and so answers the same bytes (a reply cut short, which lacks
// the closing newline every JSON body ends with, counts as a failure); compress answers from whichever
// live replicas succeed; and a DELETE that misses a shard queues it an
// unload that replays when its breaker closes, so DELETE stays idempotent
// across an outage. Request deadlines propagate on the DeadlineHeader and are clamped shard-side;
// handler panics become 500s with the request ID (slimgraph_panics_total)
// instead of torn connections; and admission control bounds the
// heavy-request wait queue, answering 429 + Retry-After when full. A
// deterministic fault injector (NewFaultInjector, ParseFaultSpec,
// slimgraphd -fault-inject) drops, delays, 503s, or truncates matching
// requests reproducibly from a seed — the chaos harness the kill-a-shard
// tests drive.
//
// # Observability
//
// Servers are instrumented end to end with a dependency-free metrics
// registry (NewMetricsRegistry; share one via ServerOptions.Registry):
// GET /metrics serves Prometheus text exposition with per-endpoint
// latency histograms, variant-cache counters, catalog residency gauges,
// per-scheme compression timing, and — on a coordinator — per-shard
// sub-request histograms whose mergeable snapshots (HistogramSnapshot)
// sum to exactly the cluster aggregate. Every request carries an
// X-Slimgraph-Request ID (RequestIDHeader), forwarded on shard
// sub-requests so one ID stitches a query's fan-out together, and emits
// one structured log line through ServerOptions.Logger
// (NewTextRequestLogger for key=value output). slimgraphd's -debug-addr
// adds a pprof listener; /v1/stats reports uptime and build info
// (ServerBuildInfo).
//
// # Quick start
//
//	g := slimgraph.GenerateRMAT(14, 8, 1) // 16k vertices, ~130k edges
//	s, _ := slimgraph.ParseScheme("tr-eo:p=0.8|spanner:k=8", slimgraph.WithSeed(1))
//	res, _ := s.Apply(g)
//	fmt.Println(res)                      // edges before/after, timing
//	orig := slimgraph.PageRank(g, 0)
//	comp := slimgraph.PageRank(res.Output, 0)
//	fmt.Println(slimgraph.KLDivergence(orig, comp))
//
// All randomness is seed-deterministic and independent of the worker
// count; a Result records the compressed graph, timing, vertex remapping,
// and (for pipelines) the per-stage Results. README.md "Layout" is the
// system inventory; cmd/slimbench prints every table and figure of the
// paper's evaluation with the shape the paper reported beside it — each a
// rendering of the typed rows one evaluator (internal/experiments) measures
// per (graph, spec) pair — and, with -frontier, the registry-wide accuracy
// frontier against packed bits/edge as JSON.
package slimgraph
