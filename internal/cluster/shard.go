package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"slimgraph/internal/centrality"
	"slimgraph/internal/graph"
	"slimgraph/internal/metrics"
	"slimgraph/internal/server"
	"slimgraph/internal/traverse"
	"slimgraph/internal/triangles"
)

// Shard is one cluster member: a full public slimgraphd (so any replica
// can also answer the ordinary API, which the coordinator uses for
// compress, stats, approximate triangles, and compare) extended with the
// /internal/v1 replication and compute protocol.
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
	srv.Handle("POST /internal/v1/graphs/{name}/whole/bfs", s.compute(wholeBFS))
	srv.Handle("POST /internal/v1/graphs/{name}/whole/pagerank", s.compute(wholePageRank))
	srv.Handle("POST /internal/v1/graphs/{name}/part/degrees", s.compute(part(partDegrees)))
	srv.Handle("POST /internal/v1/graphs/{name}/part/triangles", s.compute(part(partTriangles)))
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

// kernel is a compute route's work on its resolved target at the clamped
// worker budget, answering with the reply frame; whatever it rejects is the
// request's fault, a 400.
type kernel func(g graph.AdjacencyEdges, workers int) ([]byte, error)

// compute serves one compute route. A sub-request's whole input is its
// query string: seed and workers here, the route's own parameters read by
// parse, which binds them into the route's kernel — a malformed one is a
// 400 before anything is resolved. Then the target (original or cached
// variant — a cache miss recomputes it, so an evicted variant heals
// transparently) is resolved and the kernel answers. No route reads a body,
// and nothing allocates in proportion to a query value.
func (s *Shard) compute(parse func(q url.Values) (kernel, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		seed, errSeed := strconv.ParseUint(q.Get("seed"), 10, 64)
		workers, errWorkers := strconv.Atoi(q.Get("workers"))
		run, errRoute := parse(q)
		if err := errors.Join(errSeed, errWorkers, errRoute); err != nil {
			server.WriteErr(w, server.Errf(http.StatusBadRequest, "bad sub-request query %q: %v", r.URL.RawQuery, err))
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
		reply, err := run(adj, local.ClampWorkers(workers))
		if err != nil {
			server.WriteErr(w, server.Errf(http.StatusBadRequest, "%v", err))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
		_, _ = w.Write(reply) // a failed write is the coordinator's torn read to retry
	}
}

// The whole kernels: the single node's own code on the full replica, so
// the coordinator answers exactly what a single node would at the same
// worker count.

// wholeBFS runs traverse.BFS from `root` and answers the distance vector.
func wholeBFS(q url.Values) (kernel, error) {
	root, err := strconv.ParseInt(q.Get("root"), 10, 32)
	if err != nil {
		return nil, fmt.Errorf("bad root %q", q.Get("root"))
	}
	return func(g graph.AdjacencyEdges, workers int) ([]byte, error) {
		if root < 0 || root >= int64(g.N()) {
			return nil, fmt.Errorf("root %d outside [0, %d)", root, g.N())
		}
		return appendFrame(nil, [3]int64{}, traverse.BFS(g, graph.NodeID(root), workers).Dist), nil
	}, nil
}

// wholePageRank runs centrality.PageRank and answers the rank vector.
func wholePageRank(url.Values) (kernel, error) {
	return func(g graph.AdjacencyEdges, workers int) ([]byte, error) {
		return appendFrame(nil, [3]int64{}, centrality.PageRank(g, centrality.PageRankOptions{Workers: workers})), nil
	}, nil
}

// The part kernels. Each runs on the full replica through graph.Adjacency
// (raw CSR or packed form, traversed in place) restricted to part `part` of
// `of`, and each is a pure function of (graph, part, of).

// part binds a part kernel to the position its route is handed: part
// `shard` of `of`, which the kernel turns into its share of the work itself.
func part(k func(g graph.AdjacencyEdges, part, of, workers int) ([]byte, error)) func(url.Values) (kernel, error) {
	return func(q url.Values) (kernel, error) {
		shard, errShard := strconv.Atoi(q.Get("shard"))
		of, errOf := strconv.Atoi(q.Get("of"))
		if err := errors.Join(errShard, errOf); err != nil {
			return nil, err
		}
		if of < 1 || shard < 0 || shard >= of {
			return nil, fmt.Errorf("invalid partition position %d of %d", shard, of)
		}
		return func(g graph.AdjacencyEdges, workers int) ([]byte, error) { return k(g, shard, of, workers) }, nil
	}
}

func partDegrees(g graph.AdjacencyEdges, part, of, _ int) ([]byte, error) {
	r := partRange(g, part, of)
	return appendFrame(nil, [3]int64{}, metrics.DegreeHistogram(g, r.Lo, r.Hi)), nil
}

// partTriangles counts this part's work slice on an engine that lives for
// the sub-request: a shard keeps no triangle arena resident.
func partTriangles(g graph.AdjacencyEdges, part, of, workers int) ([]byte, error) {
	if g.Directed() {
		return nil, errors.New("triangle counting is defined for undirected graphs")
	}
	count := triangles.NewEngine(g, workers).CountPart(part, of)
	return appendFrame[int64](nil, [3]int64{count}, nil), nil
}
