package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"slimgraph/internal/bitset"
	"slimgraph/internal/centrality"
	"slimgraph/internal/graph"
	"slimgraph/internal/metrics"
	"slimgraph/internal/server"
	"slimgraph/internal/triangles"
)

// Shard is one cluster member: a full public slimgraphd (so any replica
// can also answer the ordinary API, which the coordinator uses for
// compress, stats, approximate triangles, and compare) extended with the
// /internal/v1 replication and partial-query protocol.
type Shard struct {
	srv *server.Server
}

// NewShard builds a shard around a fresh local server. It fails only when
// opts.DataDir cannot be opened or scanned.
func NewShard(opts server.Options) (*Shard, error) {
	srv, err := server.New(opts)
	if err != nil {
		return nil, err
	}
	return WrapShard(srv), nil
}

// WrapShard extends an existing locally backed server (srv.Local() must be
// non-nil) with the shard protocol — the path cmd/slimgraphd takes so
// preloads and flags apply once. The internal routes register on the
// server's own mux (server.Handle) rather than a wrapper mux, so one
// observability middleware covers the public and internal surfaces with
// correct per-endpoint patterns and no double counting.
func WrapShard(srv *server.Server) *Shard {
	if srv.Local() == nil {
		panic("cluster: shard requires a locally backed server")
	}
	s := &Shard{srv: srv}
	srv.Handle("POST /internal/v1/graphs", s.handleLoad)
	srv.Handle("DELETE /internal/v1/graphs/{name}", s.handleUnload)
	srv.Handle("POST /internal/v1/graphs/{name}/purge", s.handlePurge)
	srv.Handle("POST /internal/v1/graphs/{name}/part/bfs", s.part(4, partBFS))
	srv.Handle("POST /internal/v1/graphs/{name}/part/pr-init", s.part(0, partPRInit))
	srv.Handle("POST /internal/v1/graphs/{name}/part/pr-pull", s.part(8, partPRPull))
	srv.Handle("POST /internal/v1/graphs/{name}/part/degrees", s.part(0, partDegrees))
	srv.Handle("POST /internal/v1/graphs/{name}/part/triangles", s.part(0, partTriangles))
	return s
}

// Handler serves the public API plus the internal shard protocol.
func (s *Shard) Handler() http.Handler { return s.srv.Handler() }

// Server returns the wrapped public server (for readiness control and
// programmatic preloads).
func (s *Shard) Server() *server.Server { return s.srv }

// handleLoad replicates a graph onto this shard: the body is any snapshot
// graphio.ReadAuto sniffs (the coordinator sends the succinct packed
// format), with identity carried in query parameters so the catalog entry
// — name, memory policy, provenance — matches every other replica's.
func (s *Shard) handleLoad(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	g, err := server.ReadUpload(r, q.Get("directed") == "true")
	if err != nil {
		server.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("parsing replicated graph: %v", err)})
		return
	}
	workers, err := strconv.Atoi(q.Get("workers"))
	if err != nil {
		server.WriteErr(w, server.Errf(http.StatusBadRequest, "bad workers %q", q.Get("workers")))
		return
	}
	info, err := s.srv.Local().Create(r.Context(), q.Get("name"), q.Get("memory"), q.Get("source"), g, workers)
	if err != nil {
		server.WriteErr(w, err)
		return
	}
	server.WriteJSON(w, http.StatusCreated, info)
}

func (s *Shard) handleUnload(w http.ResponseWriter, r *http.Request) {
	resp, err := s.srv.Local().Drop(r.Context(), r.PathValue("name"))
	if err != nil {
		server.WriteErr(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (s *Shard) handlePurge(w http.ResponseWriter, r *http.Request) {
	var req purgeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		server.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad JSON body: %v", err)})
		return
	}
	purged, err := s.srv.Local().PurgeVariant(r.PathValue("name"), req.Spec, req.Seed, req.Workers)
	if err != nil {
		server.WriteErr(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, purgeResponse{Purged: purged})
}

// partTarget is a resolved part sub-request: the target graph, which part
// of how many this shard was handed, the worker budget, and the raw request
// body. The vertex-range routes own partRange(g, part, of).
type partTarget struct {
	g        graph.AdjacencyEdges
	part, of int
	workers  int
	body     []byte
}

// part serves one part route. It parses the query string, resolves the
// target (original or cached variant — a cache miss recomputes it, so an
// evicted variant heals transparently), reads the body, and answers with
// the kernel's reply frame; whatever the kernel rejects is the request's
// fault, a 400. width is the element width of the request vector the route
// takes (0: none): the body is capped at the frame of an n-element vector,
// so a hostile sender cannot make the shard buffer more than the target
// justifies; nor does anything allocate in proportion to `of`.
func (s *Shard) part(width int, kernel func(t partTarget) ([]byte, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		seed, errSeed := strconv.ParseUint(q.Get("seed"), 10, 64)
		workers, errWorkers := strconv.Atoi(q.Get("workers"))
		shard, errShard := strconv.Atoi(q.Get("shard"))
		of, errOf := strconv.Atoi(q.Get("of"))
		if err := errors.Join(errSeed, errWorkers, errShard, errOf); err != nil {
			server.WriteErr(w, server.Errf(http.StatusBadRequest, "bad part query %q: %v", r.URL.RawQuery, err))
			return
		}
		if of < 1 || shard < 0 || shard >= of {
			server.WriteErr(w, server.Errf(http.StatusBadRequest, "invalid partition position %d of %d", shard, of))
			return
		}
		local := s.srv.Local()
		adj, _, release, err := local.Target(r.PathValue("name"), server.QueryParams{
			Spec: q.Get("spec"), Seed: seed, Workers: workers,
		})
		if err != nil {
			server.WriteErr(w, err)
			return
		}
		defer release() // the pin that keeps a mapped original from being unmapped mid-computation
		limit := 0
		if width > 0 {
			limit = frameSize(width, adj.N())
		}
		body, err := server.ReadBody(http.MaxBytesReader(w, r.Body, int64(limit)), min(r.ContentLength, int64(limit)))
		var reply []byte
		if err == nil {
			reply, err = kernel(partTarget{g: adj, part: shard, of: of, workers: local.ClampWorkers(workers), body: body})
		}
		if err != nil {
			server.WriteErr(w, server.Errf(http.StatusBadRequest, "%v", err))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
		_, _ = w.Write(reply) // a failed write is the coordinator's torn read to retry
	}
}

// The part kernels. Each runs on the full replica through graph.Adjacency
// (raw CSR or packed form, traversed in place) restricted to its part, and
// each is deterministic: a pure function of (graph, part, of), any float
// accumulation happening in the order the single-node algorithm uses.

func partBFS(t partTarget) ([]byte, error) {
	n := t.g.N()
	_, frontier, err := decodeFrame[int32](nil, t.body, n)
	if err != nil {
		return nil, err
	}
	for _, u := range frontier {
		if u < 0 || int(u) >= n {
			return nil, fmt.Errorf("frontier vertex %d outside [0, %d)", u, n)
		}
	}
	return appendFrame(nil, [3]int64{}, expandFrontier(t.g, partRange(t.g, t.part, t.of), frontier)), nil
}

func partPRInit(t partTarget) ([]byte, error) {
	// Concatenated in part order the ranges' dangling lists are the globally
	// ascending one centrality.PowerIterate sums rank mass over.
	r := partRange(t.g, t.part, t.of)
	dangling := centrality.Dangling(centrality.OutDegrees(t.g, 1), r.Lo, r.Hi)
	return appendFrame(nil, [3]int64{int64(t.g.N()), int64(r.Lo), int64(r.Hi)}, dangling), nil
}

func partPRPull(t partTarget) ([]byte, error) {
	_, ranks, err := decodeFrame[float64](nil, t.body, t.g.N())
	if err != nil {
		return nil, err
	}
	if len(ranks) != t.g.N() {
		return nil, fmt.Errorf("rank vector length %d, graph has %d vertices", len(ranks), t.g.N())
	}
	// sums[i] = Σ ranks[u]/deg(u) over the in-neighbors u of vertex Lo+i, by
	// the very pull step centrality.PageRank runs (contributions divided out
	// once per sub-request, then summed in in-neighbor order), so
	// centrality.PowerIterate on the coordinator gets the single-node floats.
	r := partRange(t.g, t.part, t.of)
	contrib := make([]float64, len(ranks))
	centrality.Contributions(contrib, ranks, centrality.OutDegrees(t.g, 1))
	sums := make([]float64, r.Len())
	centrality.PullSums(t.g, r.Lo, r.Hi, contrib, sums, nil)
	return appendFrame(nil, [3]int64{int64(r.Lo)}, sums), nil
}

func partDegrees(t partTarget) ([]byte, error) {
	r := partRange(t.g, t.part, t.of)
	return appendFrame(nil, [3]int64{}, metrics.DegreeHistogram(t.g, r.Lo, r.Hi)), nil
}

// partTriangles counts this part's work slice on an engine that lives for
// the sub-request: a shard keeps no triangle arena resident.
func partTriangles(t partTarget) ([]byte, error) {
	if t.g.Directed() {
		return nil, errors.New("triangle counting is defined for undirected graphs")
	}
	count := triangles.NewEngine(t.g, t.workers).CountPart(t.part, t.of)
	return appendFrame[int64](nil, [3]int64{count}, nil), nil
}

// expandFrontier returns the sorted, deduplicated out-neighbors of the
// frontier vertices this range owns — one shard's share of a
// level-synchronous BFS step. Neighbors are marked in an n-bit set and the
// set bits read back in ascending order, so no candidate is ever sorted.
func expandFrontier(g graph.Adjacency, r Range, frontier []int32) []int32 {
	seen := bitset.New(g.N())
	for _, u := range frontier {
		if !r.Contains(u) {
			continue
		}
		g.ForNeighbors(u, func(w graph.NodeID) { seen.Set(int(w)) })
	}
	next := make([]int32, 0, seen.Count())
	seen.ForEach(func(i int) { next = append(next, int32(i)) })
	return next
}
