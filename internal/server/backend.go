package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"slimgraph/internal/graph"
	"slimgraph/internal/metrics"
	"slimgraph/internal/obs"
)

// This file defines the seam between the HTTP surface and the engine that
// answers it. slimgraphd's handlers parse and validate requests, then call a
// Catalog (graph CRUD) and a QueryBackend (compress + analytics); both have
// two implementations — the in-process Local engine and the cluster
// coordinator (internal/cluster) — so a single-node server and an N-shard
// cluster serve the same /v1 API. The analytics are the rows of Kernels
// (queries.go), the one list of servable kernels: Local answers a Query with
// its row's Run, and the coordinator relays the answer a replica's Local
// gave to the same public route, so both share every line of kernel code.

// Error is a backend failure with the HTTP status it should surface as.
// Backends return *Error so the transport layer never guesses status codes;
// the coordinator relays a shard's Error code and message verbatim, which
// keeps error bodies byte-identical between a single node and a cluster.
type Error struct {
	Code    int
	Message string
}

func (e *Error) Error() string { return e.Message }

// Errf builds an *Error with a formatted message.
func Errf(code int, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// StatusOf maps an error to its HTTP status: the embedded code for *Error,
// 500 otherwise.
func StatusOf(err error) int {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return http.StatusInternalServerError
}

// QueryParams are the common query parameters every analytics endpoint
// accepts: an optional scheme spec selecting a compressed variant, the seed,
// and the (already clamped) worker budget.
type QueryParams struct {
	Spec    string
	Seed    uint64
	Workers int
}

// Catalog is the named-graph store behind the /v1/graphs CRUD surface.
// The Local implementation keeps entries resident in one process; the
// cluster coordinator replicates every graph to all shards.
type Catalog interface {
	// Create stores g under name with the given memory policy ("" or
	// MemoryRaw keeps the CSR, MemoryPacked keeps the succinct form) and
	// free-form provenance, failing with a 409 Error if the name is taken.
	Create(ctx context.Context, name, memory, source string, g *graph.Graph, workers int) (*GraphInfo, error)
	// Info describes one graph, or fails with a 404 Error.
	Info(ctx context.Context, name string) (*GraphInfo, error)
	// List returns all graphs sorted by name.
	List(ctx context.Context) ([]GraphInfo, error)
	// Drop removes a graph and every cached variant of it.
	Drop(ctx context.Context, name string) (*DeleteResponse, error)
}

// QueryBackend executes compression and analytics queries. Responses are
// byte-identical for a fixed (graph, spec, seed, workers=1) wherever
// execution happens — the property the cluster tests pin against Local.
type QueryBackend interface {
	Compress(ctx context.Context, name, spec string, p QueryParams) (*CompressResponse, error)
	// Query answers q with its row's response, q's arguments parsed
	// already: a response value, or a json.RawMessage writeJSON relays.
	Query(ctx context.Context, q Query) (any, error)
	Stats(ctx context.Context) (*StatsResponse, error)
}

// --- wire types ------------------------------------------------------------

// GraphInfo is the JSON shape of one catalog entry.
type GraphInfo struct {
	Name     string `json:"name"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	Directed bool   `json:"directed"`
	Weighted bool   `json:"weighted"`
	Memory   string `json:"memory"`
	Source   string `json:"source"`
	// Residency is where the graph's bytes live right now: "raw" or
	// "packed" (heap), or "mapped" (memory-mapped servable snapshot).
	// Memory is the requested policy; Residency is the spiller's current
	// answer.
	Residency string `json:"residency,omitempty"`
}

// CreateRequest is the JSON body of POST /v1/graphs when generating a graph
// on demand. Uploads instead send the graph bytes as the body (any format
// graphio.ReadAuto sniffs) with name/memory/directed as query parameters.
type CreateRequest struct {
	Name string `json:"name"`
	// Gen selects the generator: rmat, er, ba, grid, communities,
	// smallworld.
	Gen         string `json:"gen"`
	Scale       int    `json:"scale"`      // rmat: n = 2^scale
	EdgeFactor  int    `json:"edgeFactor"` // edges per vertex
	NumVertices int    `json:"numVertices"`
	Seed        uint64 `json:"seed"`
	Weighted    bool   `json:"weighted"`
	// Memory is the residency policy: "raw" (default) or "packed".
	Memory  string `json:"memory"`
	Workers int    `json:"workers"`
}

// DeleteResponse reports a catalog removal.
type DeleteResponse struct {
	Deleted         string `json:"deleted"`
	VariantsDropped int    `json:"variantsDropped"`
}

// CompressRequest is the JSON body of POST /v1/graphs/{name}/compress.
type CompressRequest struct {
	Spec    string `json:"spec"`
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
}

// StageTiming is one pipeline stage's contribution to a compression run:
// where the time went and what each stage left behind.
type StageTiming struct {
	// Spec is the stage's canonical scheme spec.
	Spec string `json:"spec"`
	// M is the edge count the stage's output retained.
	M int `json:"m"`
	// ElapsedMS is the stage's execution time; the per-stage values sum to
	// the response's ElapsedMS.
	ElapsedMS float64 `json:"elapsedMs"`
}

// CompressResponse reports one compression (fresh or cached).
type CompressResponse struct {
	Graph string `json:"graph"`
	// Spec is the canonical spec the variant is cached under.
	Spec          string  `json:"spec"`
	Seed          uint64  `json:"seed"`
	Cached        bool    `json:"cached"`
	N             int     `json:"n"`
	M             int     `json:"m"`
	InputM        int     `json:"inputM"`
	EdgeReduction float64 `json:"edgeReduction"`
	ElapsedMS     float64 `json:"elapsedMs"`
	// Stages breaks ElapsedMS down per pipeline stage; single-scheme runs
	// report one stage covering the whole run.
	Stages []StageTiming `json:"stages,omitempty"`
}

// BFSResponse is the body of GET /v1/graphs/{name}/bfs.
type BFSResponse struct {
	Graph   string  `json:"graph"`
	Spec    string  `json:"spec,omitempty"`
	Root    int32   `json:"root"`
	Reached int     `json:"reached"`
	Ecc     int32   `json:"ecc"`
	Dist    []int32 `json:"dist"`
}

// RankedVertex is one entry of a PageRank top-k list.
type RankedVertex struct {
	Node  int32   `json:"node"`
	Score float64 `json:"score"`
}

// PageRankResponse is the body of GET /v1/graphs/{name}/pagerank.
type PageRankResponse struct {
	Graph string         `json:"graph"`
	Spec  string         `json:"spec,omitempty"`
	K     int            `json:"k"`
	Top   []RankedVertex `json:"top"`
}

// TrianglesResponse is the body of GET /v1/graphs/{name}/triangles.
type TrianglesResponse struct {
	Graph string `json:"graph"`
	Spec  string `json:"spec,omitempty"`
	Mode  string `json:"mode"`
	// Count is the exact count (mode=exact); Estimate the DOULION
	// estimate (mode=approx).
	Count    *int64   `json:"count,omitempty"`
	Estimate *float64 `json:"estimate,omitempty"`
}

// DegreesResponse is the body of GET /v1/graphs/{name}/degrees.
type DegreesResponse struct {
	Graph string    `json:"graph"`
	Spec  string    `json:"spec,omitempty"`
	Dist  []float64 `json:"dist"`
	Slope float64   `json:"slope"`
	R2    float64   `json:"r2"`
}

// CompareResponse is the body of GET /v1/graphs/{name}/compare.
type CompareResponse struct {
	Graph   string           `json:"graph"`
	Spec    string           `json:"spec"`
	Seed    uint64           `json:"seed"`
	Quality *metrics.Quality `json:"quality"`
}

// ShardStats is one shard's contribution to an aggregated StatsResponse.
// The telemetry fields (Ready, Requests, InFlight, Latency) are populated
// by an instrumented coordinator and describe the coordinator→shard
// sub-request traffic, not the shard's own client-facing surface.
type ShardStats struct {
	Shard  int        `json:"shard"`
	Addr   string     `json:"addr"`
	Cache  CacheStats `json:"cache"`
	Graphs int        `json:"graphs"`
	// Ready reports the outcome of the shard's most recent sub-request (or
	// readiness probe): true unless the last contact failed at transport
	// level or with a 5xx.
	Ready bool `json:"ready"`
	// Requests counts sub-requests the coordinator has sent this shard.
	Requests int64 `json:"requests,omitempty"`
	// InFlight is the number of sub-requests outstanding right now.
	InFlight int64 `json:"inFlight,omitempty"`
	// Latency is this shard's sub-request latency distribution. Merging the
	// per-shard snapshots yields exactly the coordinator's SubRequests
	// totals — the same invariant MergeStats maintains for cache counters.
	Latency *obs.HistogramSnapshot `json:"latency,omitempty"`
	// Breaker is the shard's circuit-breaker position as seen by the
	// coordinator: "closed", "half-open", or "open".
	Breaker string `json:"breaker,omitempty"`
	// PendingRepairs counts the graph unloads queued for replay when the
	// shard recovers.
	PendingRepairs int `json:"pendingRepairs,omitempty"`
}

// StatsResponse is the body of GET /v1/stats. A single node reports its own
// cache and catalog; a coordinator reports field-wise sums with the
// per-shard breakdown attached.
type StatsResponse struct {
	Cache  CacheStats `json:"cache"`
	Graphs int        `json:"graphs"`
	// UptimeSeconds counts from engine construction.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// Build identifies the serving binary (module version, Go toolchain,
	// VCS revision when available).
	Build    *obs.BuildInfo `json:"build,omitempty"`
	PerShard []ShardStats   `json:"perShard,omitempty"`
	// SubRequests is the coordinator's aggregate sub-request latency
	// histogram across all shards; merging PerShard[i].Latency equals it.
	SubRequests *obs.HistogramSnapshot `json:"subRequests,omitempty"`
	// Tier describes the two-tier catalog when a data directory is
	// configured; absent on purely in-memory servers.
	Tier *TierStats `json:"tier,omitempty"`
}

// TierStats is the disk tier's position and traffic: how many heap bytes
// the catalog holds against its budget, how many bytes are served from
// memory-mapped snapshots instead, and the spill/fault-in counters.
type TierStats struct {
	DataDir        string `json:"dataDir"`
	MemBudgetBytes int64  `json:"memBudgetBytes,omitempty"`
	// HeapBytes is the catalog's current heap footprint (raw CSRs, packed
	// forms, triangle arenas) — the quantity the budget bounds.
	HeapBytes int64 `json:"heapBytes"`
	// MappedBytes is the total size of memory-mapped snapshots; these pages
	// live in the OS page cache and are reclaimable under pressure.
	MappedBytes     int64 `json:"mappedBytes"`
	GraphSpills     int64 `json:"graphSpills"`
	VariantSpills   int64 `json:"variantSpills"`
	VariantFaultIns int64 `json:"variantFaultIns"`
	// Attached counts graphs the startup scan re-attached from the data
	// directory — the warm-restart path.
	Attached int64 `json:"attached"`
}
