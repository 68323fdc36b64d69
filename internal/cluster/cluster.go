// Package cluster shards slimgraphd across processes: a coordinator serves
// the ordinary /v1/graphs API over N shard servers, each a plain slimgraphd
// (internal/server) reached through the same public routes a client uses
// (shard.go).
//
// The design is storage-replicated: every shard holds the whole graph (raw
// or succinctly packed, traversed in place). Replicating storage is what
// keeps the paper's determinism contract intact: compression schemes key
// every random decision by global element ID (internal/core), so a variant
// computed on any replica is byte-identical to the single-node result,
// something no storage-partitioned execution of a global scheme (spanners,
// triangle reduction) could guarantee. So a variant is never shipped or
// kept in step between replicas: a replica computes it, once, through its
// own single-flight cache, on the first request that names it.
//
// Every replica is a single node, so the coordinator answers a query by
// asking one: the query goes, as one GET of the same public route, to a
// live replica, and the replica's reply is relayed byte for byte. A
// response is therefore byte-identical to internal/server's at every worker
// count by construction — the replica ran the single node's Parse and Run
// and wrote its JSON — and the cluster tests pin it too. Splitting a query
// would only repeat work: a round trip per BFS level or PageRank iteration
// costs more than the work it distributes, and a part of a one-round kernel
// still pays most of a whole query for its setup. Replicas take queries in
// turn, and a replica that fails one (a reply without the closing newline
// the server writes after every JSON body is torn and counts) passes it to
// the next; a 4xx relays at once. The coordinator schedules and holds no
// kernel logic.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"slimgraph/internal/obs"
	"slimgraph/internal/resilience"
	"slimgraph/internal/server"
)

// Options configures a Coordinator.
type Options struct {
	// Shards lists the shard base URLs (e.g. "http://10.0.0.2:8080") in
	// rank order. The order is part of the cluster's identity: merge order
	// follows it.
	Shards []string
	// ShardTimeout bounds every sub-request to a shard (default 15s). A
	// sub-request is one attempt: a query whose replica exceeds it fails
	// over to the next live replica and never asks that one again, so it
	// waits at most one ShardTimeout per hung replica and answers 502 only
	// when none answers — the coordinator never hangs on a dead shard.
	ShardTimeout time.Duration
	// Client is the HTTP client for shard calls (default: a dedicated
	// client with keep-alives).
	Client *http.Client
	// Registry, when non-nil, is passed to Coordinator.Instrument by
	// StartLocal and shared with the front server, so sub-request
	// histograms and HTTP metrics land in one exposition. Nil lets the
	// front server create its own (retrievable via Front.Registry()).
	Registry *obs.Registry
	// Logger receives the front server's structured request log in
	// StartLocal-built clusters.
	Logger obs.Logger
	// BreakerThreshold and BreakerCooldown configure the per-shard circuit
	// breakers (defaults: 3 consecutive failures, 5s cooldown).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ProbeInterval, when positive, runs a background health prober that
	// polls each routable shard's /readyz — opening breakers before a user
	// request pays the timeout, and probing cooldown expiry so recovery
	// isn't gated on user traffic. 0 disables the prober (breakers then
	// open and recover through regular traffic).
	ProbeInterval time.Duration
}

func (o Options) timeout() time.Duration {
	if o.ShardTimeout <= 0 {
		return 15 * time.Second
	}
	return o.ShardTimeout
}

// httpError is a non-2xx shard reply: the decoded {"error": ...} body and
// its status code, kept apart from transport errors so 4xx validation
// errors relay to the client verbatim.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// errBody extracts the {"error": msg} body of an error reply, falling back
// to the raw bytes.
func errBody(code int, body []byte) *httpError {
	var m map[string]string
	if err := json.Unmarshal(body, &m); err == nil && m["error"] != "" {
		return &httpError{code: code, msg: m["error"]}
	}
	return &httpError{code: code, msg: fmt.Sprintf("status %d: %s", code, bytes.TrimSpace(body))}
}

// graphPath is graph name's public route, the prefix of every sub-request
// about one graph.
func graphPath(name string) string { return "/v1/graphs/" + url.PathEscape(name) }

// doRaw performs one HTTP exchange against a shard: method addr+path with
// optional query and body, returning a 2xx reply's whole body and turning
// any other reply into an *httpError.
func doRaw(ctx context.Context, client *http.Client, method, addr, path string, query url.Values, contentType string, body io.Reader) ([]byte, error) {
	u := addr + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	// Forward the client request's ID verbatim so one ID stitches the whole
	// fan-out: the coordinator's middleware put it in ctx,
	// and each shard's middleware adopts it for its own log line.
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	// Propagate the caller's deadline so the shard clamps its own context:
	// a shard never keeps computing for a coordinator that has given up.
	resilience.SetDeadlineHeader(req.Header, ctx)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := server.ReadBody(resp.Body, resp.ContentLength)
	// Drain whatever is left (bounded — a broken body won't block) and
	// close on every path, success or error: an undrained body poisons the
	// keep-alive connection, and under failover load a leaked connection
	// per failed sub-request compounds fast.
	io.Copy(io.Discard, io.LimitReader(resp.Body, 256<<10))
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("reading reply: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, errBody(resp.StatusCode, data)
	}
	// The server ends every JSON body with a newline, the only raw one
	// compact JSON holds: a body without it was cut short.
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return nil, fmt.Errorf("torn reply: %d bytes without the closing newline", len(data))
	}
	return data, nil
}

// doJSON is doRaw for the JSON routes: a 2xx reply decodes into out (when
// non-nil).
func doJSON(ctx context.Context, client *http.Client, method, addr, path string, query url.Values, contentType string, body io.Reader, out any) error {
	data, err := doRaw(ctx, client, method, addr, path, query, contentType, body)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	return nil
}

// postJSON marshals in and POSTs it as application/json.
func postJSON(ctx context.Context, client *http.Client, addr, path string, in, out any) error {
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return doJSON(ctx, client, http.MethodPost, addr, path, nil, "application/json", bytes.NewReader(data), out)
}
