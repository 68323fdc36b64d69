package cluster

import (
	"net/http"

	"slimgraph/internal/server"
)

// Shard is one cluster member: a plain public slimgraphd whose Local is
// marked a replica (it keeps no triangle arena). The coordinator reaches it
// through the public API alone: it replicates a graph with the upload route
// (POST /v1/graphs, the packed snapshot as the body) and unloads it with
// DELETE /v1/graphs/{name}, sends every query to the public query route
// and relays its reply, and compresses and gathers stats through the public
// routes too. A variant is never shipped or purged: a replica computes it
// on the first request that names it.
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
	srv.Local().MarkReplica()
	return &Shard{srv: srv}, nil
}

// Handler serves the shard's public API.
func (s *Shard) Handler() http.Handler { return s.srv.Handler() }

// Server returns the shard's server (for readiness control and
// programmatic preloads).
func (s *Shard) Server() *server.Server { return s.srv }
