package slimgraph

import (
	"io"

	"slimgraph/internal/centrality"
	"slimgraph/internal/cluster"
	"slimgraph/internal/components"
	"slimgraph/internal/core"
	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/graphio"
	"slimgraph/internal/metrics"
	"slimgraph/internal/obs"
	"slimgraph/internal/props"
	"slimgraph/internal/resilience"
	"slimgraph/internal/rng"
	"slimgraph/internal/schemes"
	"slimgraph/internal/server"
	"slimgraph/internal/succinct"
	"slimgraph/internal/summarize"
	"slimgraph/internal/traverse"
	"slimgraph/internal/triangles"
)

// Graph is the CSR graph all of Slim Graph operates on. Vertices are
// numbered [0, N); undirected edges carry one canonical EdgeID shared by
// both directions.
type Graph = graph.Graph

// NodeID identifies a vertex.
type NodeID = graph.NodeID

// EdgeID indexes the canonical edge list.
type EdgeID = graph.EdgeID

// Edge is a (U, V, W) triple for building and enumerating graphs.
type Edge = graph.Edge

// Builder accumulates edges and produces a Graph.
type Builder = graph.Builder

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int, directed bool) *Builder { return graph.NewBuilder(n, directed) }

// FromEdges builds a graph from an edge slice (weights of 1 mean
// unweighted).
func FromEdges(n int, directed bool, edges []Edge) *Graph {
	return graph.FromEdges(n, directed, edges)
}

// FromWeightedEdges builds a weighted graph from an edge slice.
func FromWeightedEdges(n int, directed bool, edges []Edge) *Graph {
	return graph.FromWeightedEdges(n, directed, edges)
}

// FromCanonicalEdges builds a Graph from an already-canonical edge list
// (no self-loops, deduplicated, (U, V)-sorted, U <= V when undirected)
// through the sort-free construction path. It returns an error when the
// input is not canonical; use FromEdges for arbitrary input.
func FromCanonicalEdges(n int, directed, weighted bool, edges []Edge) (*Graph, error) {
	return graph.FromCanonicalEdges(n, directed, weighted, edges, 0)
}

// EdgeSet is a dense set of canonical EdgeIDs — the stage-1 mark container
// of the compression engine. Kernels may Add concurrently; FilterEdgeSet
// materializes the members from the kept canonical edge columns.
type EdgeSet = graph.EdgeSet

// NewEdgeSet returns an empty EdgeSet over the universe [0, m).
func NewEdgeSet(m int) *EdgeSet { return graph.NewEdgeSet(m) }

// E constructs an unweighted edge; WE a weighted one.
func E(u, v NodeID) Edge             { return graph.E(u, v) }
func WE(u, v NodeID, w float64) Edge { return graph.WE(u, v, w) }

// ReadEdgeList parses a text edge list ("u v" or "u v w" per line, # and %
// comments; a "# Nodes: N" header raises the vertex count).
func ReadEdgeList(r io.Reader, directed bool) (*Graph, error) {
	return graphio.ReadEdgeList(r, directed)
}

// ReadEdgeListN is ReadEdgeList with an explicit vertex count: the graph
// has exactly n vertices and endpoints >= n are an error (n <= 0 infers).
func ReadEdgeListN(r io.Reader, directed bool, n int) (*Graph, error) {
	return graphio.ReadEdgeListN(r, directed, n)
}

// WriteEdgeList writes the canonical edge list as text.
func WriteEdgeList(w io.Writer, g *Graph) error { return graphio.WriteEdgeList(w, g) }

// WriteBinary writes the v1 binary snapshot (fixed-width canonical edge
// list) and returns its size in bytes — the uncompressed on-disk footprint
// the storage analyses compare against.
func WriteBinary(w io.Writer, g *Graph) (int64, error) { return graphio.WriteBinary(w, g) }

// ReadBinary reads a v1 snapshot written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) { return graphio.ReadBinary(r) }

// BinarySize returns the v1 snapshot size WriteBinary would write, computed
// from the graph's shape without writing anything.
func BinarySize(g *Graph) int64 { return graphio.BinarySize(g) }

// WritePacked writes the v2 packed snapshot — gap-encoded canonical lists
// with a block directory (internal/succinct), typically 3-4x smaller than
// WriteBinary — and returns its size in bytes.
func WritePacked(w io.Writer, g *Graph) (int64, error) { return graphio.WritePacked(w, g) }

// ReadPacked reads a v2 snapshot written by WritePacked (lossless:
// graph.Equal to what was written).
func ReadPacked(r io.Reader) (*Graph, error) { return graphio.ReadPacked(r) }

// PackedSize returns the v2 snapshot size without retaining output.
func PackedSize(g *Graph) int64 { return graphio.PackedSize(g) }

// ReadSnapshot reads a binary snapshot of either version, dispatching on
// the header tag.
func ReadSnapshot(r io.Reader) (*Graph, error) { return graphio.Read(r) }

// ReadGraph reads a graph of unknown format: binary snapshots (v1 or v2)
// are recognized by their magic, anything else parses as a text edge list
// (directed applies only to that case). It is the sniffing behind the
// slimgraph CLI's -input and the server's graph uploads.
func ReadGraph(r io.Reader, directed bool) (*Graph, error) {
	return graphio.ReadAuto(r, directed)
}

// IsSnapshot reports whether a file beginning with prefix (>= 4 bytes) is a
// binary snapshot of either version.
func IsSnapshot(prefix []byte) bool { return graphio.SniffSnapshot(prefix) }

// Succinct in-memory storage: the blocked, bit-packed CSR of
// internal/succinct, which every algorithm taking an Adjacency or an
// AdjacencyEdges runs on in place.

// PackedGraph is the succinct in-memory form: gap-encoded adjacency behind
// a two-level offset directory, decoded on the fly by its accessors.
type PackedGraph = succinct.PackedGraph

// PackedStats breaks down a PackedGraph's footprint.
type PackedStats = succinct.Stats

// PackGraph encodes g into its succinct form. Deterministic: identical
// bytes for every worker count (workers <= 0 means all CPUs). Unpack
// restores a graph.Equal copy.
func PackGraph(g *Graph, workers int) *PackedGraph { return succinct.Pack(g, workers) }

// Order selects a locality ordering: OrderNone keeps original IDs;
// OrderDegree, OrderBFS, and OrderWindow compute gap-minimizing permutations
// of increasing effort. A pack never applies one: PackGraph, WritePacked and
// WriteServable keep the graph's own IDs and store no permutation. To pack
// under an order, relabel the graph first with the "relabel:order=..."
// scheme, whose output is the renumbered graph and whose Result.VertexMap
// is the permutation.
type Order = succinct.Order

// Locality orderings for ComputeOrder and the relabel scheme.
const (
	OrderNone   = succinct.OrderNone
	OrderDegree = succinct.OrderDegree
	OrderBFS    = succinct.OrderBFS
	OrderWindow = succinct.OrderWindow
)

// ParseOrder maps an ordering name (none, degree, bfs, window;
// case-insensitive) to its Order.
func ParseOrder(s string) (Order, error) { return succinct.ParseOrder(s) }

// ComputeOrder returns the permutation (perm[old] = new) of the given
// ordering, or nil for OrderNone. Deterministic for any worker count.
func ComputeOrder(g *Graph, order Order, workers int) []NodeID {
	return succinct.ComputeOrder(g, order, workers)
}

// GapHist is the distribution of encoded gap widths of a graph's adjacency
// payload under a permutation — the quantity a locality ordering shrinks.
type GapHist = succinct.GapHist

// GapHistogram measures g's gap stream under perm (nil = identity) without
// building a payload: encoded-value widths plus the exact payload byte size.
func GapHistogram(g *Graph, perm []NodeID, workers int) GapHist {
	return succinct.GapHistogram(g, perm, workers)
}

// Servable images: the v2.3 snapshot layout whose sections are 8-byte
// aligned so a PackedGraph attaches over the raw bytes in place — the
// serving form behind slimgraphd's -data-dir tier. Write once, then open
// memory-mapped in milliseconds with no decode pass and no heap copy.

// MappedGraph is a PackedGraph attached over a memory-mapped servable
// image: backing bytes live in the page cache, not the Go heap. Lifetime is
// reference counted — readers bracket use with Acquire, and Close defers
// the munmap until the last reader drains.
type MappedGraph = succinct.Mapped

// ServableInfo is the identity a servable header carries (vertices, edges,
// directedness, weights, exact image size) — enough to register a catalog
// entry without mapping or decoding anything.
type ServableInfo = succinct.ServableInfo

// MmapSupported reports whether OpenServable maps files with mmap on this
// platform. When false it falls back to reading the image into the heap;
// every API behaves identically either way.
const MmapSupported = succinct.MmapSupported

// WriteServable writes g's packed form as a servable image. The inverse is
// OpenServable (from a file) or AttachServable (from bytes already in
// memory).
func WriteServable(w io.Writer, pg *PackedGraph) (int64, error) {
	return succinct.WriteServable(w, pg)
}

// ServableSize returns the exact image size WriteServable will produce for
// pg — useful for preallocating or budgeting before a write.
func ServableSize(pg *PackedGraph) int64 { return succinct.ServableSize(pg) }

// OpenServable maps the servable image at path and attaches a PackedGraph
// over it: zero decode pass, and on platforms with MmapSupported zero heap
// copy. Close the returned graph when done; in-flight Acquire holders keep
// the mapping alive until they release.
func OpenServable(path string) (*MappedGraph, error) { return succinct.OpenPacked(path) }

// StatServable reads only the fixed header of the servable image at path.
// The file size is validated against the size the header implies, so a
// truncated image is rejected here rather than at query time.
func StatServable(path string) (ServableInfo, error) { return succinct.StatServable(path) }

// AttachServable attaches a PackedGraph over a servable image already in
// memory — an mmap window the caller manages, or a snapshot body shipped
// over the network. Zero-copy on little-endian hosts; the caller must keep
// data alive and unmodified for the life of the graph.
func AttachServable(data []byte) (*PackedGraph, error) { return succinct.AttachServable(data) }

// IsServable reports whether prefix begins a servable image (as opposed to
// the v1/v2.2 wire snapshots ReadSnapshot decodes).
func IsServable(prefix []byte) bool { return succinct.IsServable(prefix) }

// Adjacency is the neighborhood view shared by *Graph and *PackedGraph.
// Each algorithm taking it (or AdjacencyEdges) has one implementation, which
// answers identically on either representation. Push-style
// traversals walk out-lists per vertex (ForNeighbors); pull-style kernels
// take in-lists a vertex range at a time (ScanInLists), which a packed graph
// decodes back to back into one reused buffer — PageRank once per call, into
// flat arrays its iterations pull from; a
// bottom-up BFS level asks each unvisited vertex for its first in-neighbor
// in the frontier (FirstInNeighborIn), and a packed graph decodes that list
// no further than the answer.
type Adjacency = graph.Adjacency

// AdjacencyEdges extends Adjacency with canonical-edge enumeration — the
// view the whole-graph kernels (triangles, compare, BFS critical edges, MST)
// consume, implemented by *Graph and *PackedGraph alike.
type AdjacencyEdges = graph.AdjacencyEdges

// Generators (deterministic per seed). See internal/gen for the analog
// mapping to the paper's datasets.

// GenerateRMAT returns an undirected R-MAT graph with 2^scale vertices and
// about edgeFactor*2^scale edges (Graph500 partition probabilities).
func GenerateRMAT(scale, edgeFactor int, seed uint64) *Graph {
	return gen.RMAT(scale, edgeFactor, 0.57, 0.19, 0.19, seed)
}

// GenerateErdosRenyi returns a G(n, m)-style random graph.
func GenerateErdosRenyi(n, m int, seed uint64) *Graph { return gen.ErdosRenyi(n, m, seed) }

// GenerateBarabasiAlbert returns a preferential-attachment graph.
func GenerateBarabasiAlbert(n, k int, seed uint64) *Graph { return gen.BarabasiAlbert(n, k, seed) }

// GenerateGrid returns a rows x cols road-like grid, optionally with
// diagonals (which introduce triangles).
func GenerateGrid(rows, cols int, diagonal bool) *Graph { return gen.Grid2D(rows, cols, diagonal) }

// GenerateCommunities returns a planted-partition graph: dense communities
// of communitySize plus random inter-community edges (high triangle
// density).
func GenerateCommunities(n, communitySize int, pIn float64, interEdges int, seed uint64) *Graph {
	return gen.PlantedPartition(n, communitySize, pIn, interEdges, seed)
}

// GenerateSmallWorld returns a Watts–Strogatz graph.
func GenerateSmallWorld(n, k int, beta float64, seed uint64) *Graph {
	return gen.WattsStrogatz(n, k, beta, seed)
}

// WithUniformWeights returns a weighted copy with per-edge uniform weights
// in [lo, hi).
func WithUniformWeights(g *Graph, lo, hi float64, seed uint64) *Graph {
	return gen.WithUniformWeights(g, lo, hi, seed)
}

// Compression schemes (Table 2 of the paper). Each output is fixed by its
// seed at any worker count (workers <= 0 means all CPUs).
//
// The surface is the Scheme interface plus the registry. The spec string is
// the one way to build a scheme — ParseScheme("uniform:p=0.5"),
// ParseScheme("tr-eo:p=0.8|spanner:k=8") — and a SchemeInfo (a kernel plus a
// parameter table) passed to RegisterScheme is the one way to add one.

// Result is the outcome of one compression run.
type Result = schemes.Result

// StorageStats is the snapshot-footprint accounting of a run, filled by
// Result.ComputeStorage.
type StorageStats = schemes.StorageStats

// Scheme is a configured compression scheme; every registered scheme and
// every Pipeline implements it.
type Scheme = schemes.Scheme

// Pipeline chains schemes; it is itself a Scheme.
type Pipeline = schemes.Pipeline

// SchemeOption is a run setting every scheme accepts: WithSeed or
// WithWorkers. Everything specific to one scheme is a spec parameter.
type SchemeOption = schemes.Option

// SchemeInfo declares one registry entry: Name, About, the parameter table
// Params, and the kernel Apply(g, args). g is an AdjacencyEdges — a Graph, or
// a PackedGraph or MappedGraph a server compresses in place — and every
// kernel run through NewSG reads it as it is. Only a scheme that builds a
// graph on a new vertex set (summarize, relabel, tr-collapse's contraction)
// takes a CSR of it.
type SchemeInfo = schemes.Registration

// SchemeParam is one row of a scheme's parameter table: key, kind, default,
// and the closed range or value list the registry checks specs against.
type SchemeParam = schemes.Param

// SchemeArgs is what a registered kernel receives: Seed, Workers and the
// typed getters Float, Int, Bool, Enum over its declared parameters.
type SchemeArgs = schemes.Args

// Parameter kinds for SchemeParam.Kind.
const (
	ParamFloat = schemes.Float
	ParamInt   = schemes.Int
	ParamBool  = schemes.Bool
	ParamEnum  = schemes.Enum
)

// WithSeed sets the random seed (every scheme is deterministic per seed).
func WithSeed(seed uint64) SchemeOption { return schemes.WithSeed(seed) }

// WithWorkers sets the parallelism (<= 0 means all CPUs).
func WithWorkers(workers int) SchemeOption { return schemes.WithWorkers(workers) }

// NewPipeline chains schemes into one Scheme applied left to right.
func NewPipeline(stages ...Scheme) (*Pipeline, error) { return schemes.NewPipeline(stages...) }

// ParseScheme builds a Scheme (or Pipeline) from a registry spec:
//
//	spec   := stage ("|" stage)*
//	stage  := name [":" params]
//	params := key "=" value ("," key "=" value)*
//
// Defaults (WithSeed, WithWorkers) apply to every stage; a stage's own
// seed= or workers= wins. Every other key must be a row of the named
// scheme's parameter table and may be given once.
// SchemeSpec(ParseScheme(s)) round-trips.
func ParseScheme(spec string, defaults ...SchemeOption) (Scheme, error) {
	return schemes.Parse(spec, defaults...)
}

// SchemeSpec returns the spec string Parse round-trips for s.
func SchemeSpec(s Scheme) string { return schemes.Spec(s) }

// RegisterScheme adds a scheme to the registry, making it addressable by
// name from specs, pipelines, both CLIs, the server and the experiment
// harness. The registry parses, range-checks and defaults the declared
// parameters and hands the kernel its SchemeArgs.
func RegisterScheme(r SchemeInfo) { schemes.Register(r) }

// LookupScheme returns the registration for name.
func LookupScheme(name string) (SchemeInfo, bool) { return schemes.Lookup(name) }

// SchemeNames returns all registered scheme names, sorted.
func SchemeNames() []string { return schemes.Names() }

// MinCut returns the weight of a global minimum cut (Stoer–Wagner; O(n^3),
// for verification-scale graphs).
func MinCut(g *Graph) float64 { return props.StoerWagner(g) }

// SummarizeOptions configures Summarize; see summarize.Options.
type SummarizeOptions = summarize.Options

// Summary is a lossy ε-summary: supervertices, superedges, and corrections.
type Summary = summarize.Summary

// Summarize builds a SWeG-style lossy ε-summary (§4.5.4).
func Summarize(g *Graph, opts SummarizeOptions) *Summary { return summarize.Summarize(g, opts) }

// The programming model, for writing custom compression kernels (§4.1).

// SG is the global container object available to kernels.
type SG = core.SG

// Rand is the per-kernel-instance random stream.
type Rand = rng.Rand

// Kernel argument views.
type (
	EdgeView     = core.EdgeView
	VertexView   = core.VertexView
	TriangleView = core.TriangleView
	SubgraphView = core.SubgraphView
)

// Kernel types.
type (
	EdgeKernel     = core.EdgeKernel
	VertexKernel   = core.VertexKernel
	TriangleKernel = core.TriangleKernel
	SubgraphKernel = core.SubgraphKernel
)

// NewSG returns a kernel execution context over g: a Graph, or a PackedGraph
// or MappedGraph, which every kernel reads in place — edge kernels and
// Materialize through its canonical edge columns (SG.EdgeColumns), vertex
// kernels through its degrees, triangle kernels through an enumeration
// engine built over it. Run kernels with its Run*Kernel methods, then call
// Materialize for the compressed graph.
func NewSG(g AdjacencyEdges, seed uint64, workers int) *SG { return core.New(g, seed, workers) }

// Stage-2 algorithms.

// BFSResult is the parent tree and level of every vertex.
type BFSResult = traverse.BFSResult

// BFS runs a parallel, direction-optimising breadth-first search from root
// over any Adjacency — a Graph, or a PackedGraph traversed in place, decoding
// lists on the fly. Dist is the same on every representation and at every
// worker count; Parent is at workers == 1.
func BFS(g Adjacency, root NodeID, workers int) *BFSResult { return traverse.BFS(g, root, workers) }

// Dijkstra returns exact shortest-path distances and the SSSP parent array.
func Dijkstra(g *Graph, root NodeID) ([]float64, []NodeID) { return traverse.Dijkstra(g, root) }

// DeltaStepping returns SSSP distances with bucketed parallel relaxation;
// delta <= 0 picks a heuristic bucket width.
func DeltaStepping(g *Graph, root NodeID, delta float64, workers int) []float64 {
	return traverse.DeltaStepping(g, root, delta, workers)
}

// Diameter returns the double-sweep diameter lower bound.
func Diameter(g *Graph, workers int) int32 {
	return traverse.DoubleSweepDiameter(g, 0, workers)
}

// PageRank returns the PageRank distribution (sums to 1) with standard
// parameters (damping 0.85), bit-identical on a Graph and its PackedGraph.
func PageRank(g Adjacency, workers int) []float64 {
	return centrality.PageRank(g, centrality.PageRankOptions{Workers: workers})
}

// PageRankOptions configures PageRankWith.
type PageRankOptions = centrality.PageRankOptions

// PageRankWith runs PageRank with explicit options.
func PageRankWith(g Adjacency, opts PageRankOptions) []float64 { return centrality.PageRank(g, opts) }

// Betweenness returns exact Brandes betweenness centrality (O(nm)).
func Betweenness(g *Graph, workers int) []float64 { return centrality.Betweenness(g, workers) }

// BetweennessSampled estimates betweenness from the given sources.
func BetweennessSampled(g *Graph, sources []NodeID, workers int) []float64 {
	return centrality.BetweennessSampled(g, sources, workers)
}

// ConnectedComponents returns per-vertex component labels (smallest member
// ID).
func ConnectedComponents(g Adjacency) []NodeID { return components.Labels(g) }

// ComponentCount returns the number of connected components.
func ComponentCount(g Adjacency) int { return components.Count(g) }

// TriangleCount returns the exact number of triangles; a PackedGraph is
// counted in place.
func TriangleCount(g AdjacencyEdges, workers int) int64 { return triangles.Count(g, workers) }

// TrianglesPerVertex returns the per-vertex triangle counts.
func TrianglesPerVertex(g *Graph, workers int) []int64 { return triangles.PerVertex(g, workers) }

// TrianglesPerEdge returns the per-edge triangle counts — the input to the
// CT variant of Triangle Reduction.
func TrianglesPerEdge(g *Graph, workers int) []int64 { return triangles.PerEdge(g, workers) }

// TriangleCountApprox estimates the triangle count with DOULION edge
// sampling: each edge survives with probability p and the sampled count is
// scaled by p^-3. The coin flips key on canonical edge IDs, which every
// representation of a graph shares.
func TriangleCountApprox(g AdjacencyEdges, p float64, seed uint64, workers int) float64 {
	return triangles.CountApprox(g, p, seed, workers)
}

// TriangleEngine is the reusable triangle-enumeration substrate: a
// rank-oriented forward CSR built once per graph, shared by counting,
// per-element counting, and triangle-kernel runs. The package-level
// triangle functions build a single-use substrate internally (TriangleCount
// only the count-only forward CSR); construct an engine explicitly to
// amortize it across repeated enumerations of the same graph.
type TriangleEngine = triangles.Engine

// NewTriangleEngine builds the enumeration substrate for g (undirected
// only; workers <= 0 uses all CPUs). A PackedGraph's edges feed the oriented
// CSR directly, no unpack.
func NewTriangleEngine(g AdjacencyEdges, workers int) *TriangleEngine {
	return triangles.NewEngine(g, workers)
}

// MSTWeight returns the weight of a minimum spanning forest (Kruskal).
func MSTWeight(g AdjacencyEdges) float64 { return props.Kruskal(g).Weight }

// ColoringNumber returns the Szekeres–Wilf coloring number
// (degeneracy + 1).
func ColoringNumber(g *Graph) int { return props.ColoringNumber(g) }

// MatchingSize returns the size of a greedy maximal matching.
func MatchingSize(g *Graph) int { return props.MatchingSize(g) }

// IndependentSetSize returns the best greedy maximal-independent-set size.
func IndependentSetSize(g *Graph) int { return props.IndependentSetSize(g) }

// Accuracy metrics (§5).

// KLDivergence returns the Kullback–Leibler divergence D(P||Q) in bits.
func KLDivergence(p, q []float64) float64 { return metrics.KLDivergence(p, q) }

// JensenShannon returns the Jensen–Shannon divergence.
func JensenShannon(p, q []float64) float64 { return metrics.JensenShannon(p, q) }

// ReorderedPairs returns the fraction of vertex pairs whose order under two
// score vectors inverted (normalized by n^2).
func ReorderedPairs(orig, comp []float64) float64 { return metrics.ReorderedPairs(orig, comp) }

// ReorderedNeighborPairs is the O(m) neighboring-pairs variant.
func ReorderedNeighborPairs(g *Graph, orig, comp []float64) float64 {
	return metrics.ReorderedNeighborPairs(g, orig, comp)
}

// BFSCriticalRetention returns |Ẽcr|/|Ecr| averaged over the given roots —
// the BFS accuracy metric of §5.
func BFSCriticalRetention(orig, compressed AdjacencyEdges, roots []NodeID, workers int) float64 {
	return metrics.BFSCriticalMulti(orig, compressed, roots, workers)
}

// Quality bundles the §5 accuracy metrics of one compressed variant against
// its original — the payload of the server's /compare endpoint.
type Quality = metrics.Quality

// CompareGraphs computes the Quality of comp against orig. The vertex set
// must be unchanged (no collapse/summarize variants); workers <= 0 means
// all CPUs. Either side may be raw or packed; the Quality is bit-identical
// for the same logical graphs.
func CompareGraphs(orig, comp AdjacencyEdges, workers int) (*Quality, error) {
	return metrics.CompareGraphs(orig, comp, workers)
}

// DegreeDistribution returns the fraction of vertices per degree.
func DegreeDistribution(g Adjacency) []float64 { return metrics.DegreeDistribution(g) }

// PowerLawSlope fits the degree distribution's log-log slope and R^2.
func PowerLawSlope(dist []float64) (slope, r2 float64) { return metrics.PowerLawSlope(dist) }

// Serving: the slimgraphd compress-and-query service (cmd/slimgraphd), for
// embedding in-process. See internal/server for the HTTP API.

// Server is the slimgraphd service: a catalog of resident graphs, a
// single-flight compressed-variant cache, and the HTTP/JSON handler tying
// them together.
type Server = server.Server

// ServerOptions configures NewServer: variant-cache capacity, the
// heavy-request concurrency bound, the per-request worker-budget cap, and
// the observability hooks (metrics Registry, request Logger).
type ServerOptions = server.Options

// ServerCacheStats is a snapshot of the variant cache counters.
type ServerCacheStats = server.CacheStats

// Observability: the dependency-free metrics and request-tracing core
// behind GET /metrics and the X-Slimgraph-Request header. See internal/obs.

// MetricsRegistry holds named metric families (counters, gauges,
// fixed-bucket histograms) and renders Prometheus text exposition; every
// server records into one and serves it on GET /metrics.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry — pass it via
// ServerOptions.Registry to share one exposition across components, or let
// each server create its own.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricLabel is one key=value dimension of a metric.
type MetricLabel = obs.Label

// HistogramSnapshot is a point-in-time histogram copy: per-bucket counts
// over fixed bounds, mergeable exactly when bounds match — the type the
// cluster's per-shard latency stats travel as.
type HistogramSnapshot = obs.HistogramSnapshot

// RequestLogger receives one structured record per HTTP request.
type RequestLogger = obs.Logger

// NewTextRequestLogger returns a RequestLogger writing one key=value line
// per request to w, safe for concurrent use.
func NewTextRequestLogger(w io.Writer) RequestLogger { return obs.NewTextLogger(w) }

// RequestIDHeader is the HTTP header carrying the request ID, assigned by
// the server when absent and forwarded verbatim on every coordinator→shard
// sub-request.
const RequestIDHeader = obs.RequestIDHeader

// ServerBuildInfo identifies a serving binary (module version, Go
// toolchain, VCS revision); it rides on /v1/stats.
type ServerBuildInfo = obs.BuildInfo

// Memory policies for graphs in the server catalog: raw CSR or the
// succinct packed form traversed in place.
const (
	MemoryRaw    = server.MemoryRaw
	MemoryPacked = server.MemoryPacked
)

// NewServer returns a server; serve its Handler() with net/http, or preload
// graphs via AddGraph/AddGenerated. The catalog starts empty unless
// ServerOptions.DataDir holds snapshots from a previous run, which are
// re-attached memory-mapped (the warm-restart path). NewServer fails only
// when the data directory cannot be opened or scanned.
func NewServer(opts ServerOptions) (*Server, error) { return server.New(opts) }

// PartitionRange is one rank's contiguous vertex range.
type PartitionRange = graph.Range

// PartitionByDegree splits a graph's vertices into parts contiguous ranges
// balanced by degree+1 — the 1D partitioning of the paper's
// distributed-memory pipeline (§3.2, §7.3), a pure function of the degree
// sequence.
func PartitionByDegree(g *Graph, parts int) []PartitionRange {
	return graph.PartitionByDegree(g, parts)
}

// Sharded serving: a coordinator + N shard cluster behind the same
// /v1/graphs HTTP API, byte-identical to a single node for a fixed seed at
// the same worker count. See internal/cluster and cmd/slimgraphd -role.

// ClusterOptions configures a Coordinator: shard base URLs in rank order,
// the per-shard sub-request deadline (each sub-request is one attempt; a
// failed one fails over to the next replica), an optional HTTP client, and the
// fault-tolerance knobs (circuit-breaker threshold/cooldown, background
// health-probe interval).
type ClusterOptions = cluster.Options

// Coordinator serves the public API over shard replicas; it
// implements the server's Catalog and QueryBackend seams, so
// server.NewWithBackend(coord, coord, opts) is a drop-in cluster frontend
// (NewLocalCluster wires this up for you).
type Coordinator = cluster.Coordinator

// ClusterShard is one cluster member: a plain local server, marked a
// replica, that the coordinator reaches through the public API alone.
type ClusterShard = cluster.Shard

// LocalCluster is an in-process coordinator + N shards on loopback
// listeners — the cluster analog of NewServer for tests and demos.
type LocalCluster = cluster.LocalCluster

// NewCoordinator returns a coordinator over the configured shards.
func NewCoordinator(opts ClusterOptions) (*Coordinator, error) {
	return cluster.NewCoordinator(opts)
}

// NewClusterShard returns a shard around a fresh local server. It fails
// only when opts.DataDir cannot be opened or scanned.
func NewClusterShard(opts ServerOptions) (*ClusterShard, error) { return cluster.NewShard(opts) }

// NewLocalCluster boots n shards on ephemeral loopback ports plus a
// coordinator; serve its Front.Handler() or query it in-process.
func NewLocalCluster(n int, shardOpts ServerOptions, opts ClusterOptions) (*LocalCluster, error) {
	return cluster.StartLocal(n, shardOpts, opts)
}

// Resilience: the fault-tolerance layer the cluster coordinator and server
// ride on — per-shard circuit breakers, deadline propagation, and seeded
// fault injection. See internal/resilience.

// BreakerState is a circuit breaker's position: BreakerClosed,
// BreakerHalfOpen, or BreakerOpen — the value of the
// slimgraph_shard_breaker_state gauge and Coordinator.BreakerState.
type BreakerState = resilience.BreakerState

// Circuit-breaker positions, ordered so the metric gauge reads naturally:
// 0 closed (routable), 1 half-open (probing), 2 open (shed).
const (
	BreakerClosed   = resilience.BreakerClosed
	BreakerHalfOpen = resilience.BreakerHalfOpen
	BreakerOpen     = resilience.BreakerOpen
)

// FaultRule is one deterministic fault-injection rule: request matchers
// (path/host/method substrings), firing controls (probability, seed,
// after, times), and the action (drop, delay, status, truncate).
type FaultRule = resilience.FaultRule

// FaultInjector applies FaultRules as a client RoundTripper or a server
// middleware; identical seeds replay identical fault sequences.
type FaultInjector = resilience.Injector

// NewFaultInjector builds an injector over the given rules (first matching
// rule that fires wins).
func NewFaultInjector(rules ...*FaultRule) *FaultInjector {
	return resilience.NewInjector(rules...)
}

// ParseFaultSpec parses the -fault-inject grammar: ";"-separated rules of
// ","-separated key=value fields, e.g.
// "path=/v1/graphs/,p=0.1,seed=7,status=503;path=/compress,times=1,drop".
func ParseFaultSpec(spec string) (*FaultInjector, error) {
	return resilience.ParseFaultSpec(spec)
}

// DeadlineHeader propagates the caller's context deadline on sub-requests
// (Unix nanoseconds); servers clamp their request context to it, so a
// shard never keeps computing for a coordinator that has given up.
const DeadlineHeader = resilience.DeadlineHeader
