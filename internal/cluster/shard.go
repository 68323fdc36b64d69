package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"slimgraph/internal/graph"
	"slimgraph/internal/server"
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

// partTarget is a resolved part sub-request: the target adjacency, this
// shard's owned range, and the raw request body.
type partTarget struct {
	g    graph.Adjacency
	r    Range
	body []byte
}

// part serves one part route. It parses the query string, resolves the
// target (original or cached variant — a cache miss recomputes it, so an
// evicted variant heals transparently), computes this shard's range, reads
// the body, and answers with the kernel's reply frame; whatever the kernel
// rejects is the request's fault, a 400. width is the element width of the
// request vector the route takes (0: none): the body is capped at the
// frame of an n-element vector, so a hostile sender cannot make the shard
// buffer more than the target justifies.
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
		adj, _, release, err := s.srv.Local().Target(r.PathValue("name"), server.QueryParams{
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
			reply, err = kernel(partTarget{g: adj, r: PartitionByDegree(adj, of)[shard], body: body})
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
	return appendFrame(nil, [3]int64{}, expandFrontier(t.g, t.r, frontier)), nil
}

func partPRInit(t partTarget) ([]byte, error) {
	return appendFrame(nil, [3]int64{int64(t.g.N()), int64(t.r.Lo), int64(t.r.Hi)}, danglingIn(t.g, t.r)), nil
}

func partPRPull(t partTarget) ([]byte, error) {
	_, ranks, err := decodeFrame[float64](nil, t.body, t.g.N())
	if err != nil {
		return nil, err
	}
	if len(ranks) != t.g.N() {
		return nil, fmt.Errorf("rank vector length %d, graph has %d vertices", len(ranks), t.g.N())
	}
	return appendFrame(nil, [3]int64{int64(t.r.Lo)}, pullSums(t.g, t.r, ranks)), nil
}

func partDegrees(t partTarget) ([]byte, error) {
	return appendFrame(nil, [3]int64{}, HistogramRange(t.g, t.r)), nil
}

func partTriangles(t partTarget) ([]byte, error) {
	return appendFrame[int64](nil, [3]int64{countForward(t.g, t.r)}, nil), nil
}
