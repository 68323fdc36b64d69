package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"slimgraph/internal/server"
)

// Shard is one cluster member: a full public slimgraphd (so any replica
// can also answer the ordinary API, which the coordinator uses for compress
// and stats) extended with the /internal/v1 replication protocol and one
// compute route per public analytics route (server.Routes).
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
	for _, k := range server.Routes() {
		srv.Handle("POST /internal/v1/graphs/{name}/whole/"+k.Name, s.compute(k))
	}
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

// compute serves the compute route of k.Name. A sub-request's whole input
// is its query string: spec, seed and workers — a malformed one is a 400
// before anything is resolved — plus the row's own arguments, which
// ParseQuery reads as on the public route, picking the row by mode.
// Local.Compute then resolves the target (a variant this replica does not
// hold — never warmed here, or evicted — is computed through its cache) and
// runs the row. No route reads a body, and nothing allocates in proportion
// to a query value.
func (s *Shard) compute(k *server.Kernel) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v := r.URL.Query()
		q := server.Query{Graph: r.PathValue("name"), QueryParams: server.QueryParams{Spec: v.Get("spec")}}
		var errs [2]error
		q.Seed, errs[0] = strconv.ParseUint(v.Get("seed"), 10, 64)
		q.Workers, errs[1] = strconv.Atoi(v.Get("workers"))
		if err := errors.Join(errs[:]...); err != nil {
			server.WriteErr(w, server.Errf(http.StatusBadRequest, "bad sub-request query %q: %v", r.URL.RawQuery, err))
			return
		}
		local := s.srv.Local()
		info, err := local.Info(r.Context(), q.Graph)
		if err == nil {
			err = k.ParseQuery(v, info, &q)
		}
		var reply []byte
		if err == nil {
			var res server.Reply
			if res, err = local.Compute(q); err == nil {
				reply, err = appendReply(q.Kernel, res)
			}
		}
		if err != nil {
			server.WriteErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
		_, _ = w.Write(reply) // a failed write is the coordinator's torn read to retry
	}
}
