package cluster

import (
	"fmt"
	"net/http"
	"strconv"

	"slimgraph/internal/server"
)

// Shard is one cluster member: a full public slimgraphd, whose Local is
// marked a replica (it keeps no triangle arena), extended with the
// /internal/v1 replication protocol. The coordinator sends every query to a
// replica's public route and relays its reply, and compresses and gathers
// stats through the public API too. Replication addresses whole graphs:
//
//	POST   /internal/v1/graphs?name=&memory=&source=&workers=[&directed=true]
//	       loads the snapshot in the body (any format graphio.ReadAuto
//	       sniffs; the coordinator sends the succinct packed one)
//	DELETE /internal/v1/graphs/{name}
//	       unloads the graph and every variant of it
//
// A variant is never shipped or purged: a replica computes it on the first
// request that names it.
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
// preloads and flags apply once — and marks its Local a replica. The
// internal routes register on the server's own mux (server.Handle) rather
// than a wrapper mux, so one observability middleware covers the public and
// internal surfaces with correct per-endpoint patterns and no double
// counting.
func WrapShard(srv *server.Server) *Shard {
	if srv.Local() == nil {
		panic("cluster: shard requires a locally backed server")
	}
	srv.Local().MarkReplica()
	s := &Shard{srv: srv}
	srv.Handle("POST /internal/v1/graphs", s.handleLoad)
	srv.Handle("DELETE /internal/v1/graphs/{name}", s.handleUnload)
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
	server.Respond(w, http.StatusCreated, info, err)
}

func (s *Shard) handleUnload(w http.ResponseWriter, r *http.Request) {
	resp, err := s.srv.Local().Drop(r.Context(), r.PathValue("name"))
	server.Respond(w, http.StatusOK, resp, err)
}
