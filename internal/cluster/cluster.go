// Package cluster shards slimgraphd across processes: a coordinator serves
// the ordinary /v1/graphs API over N shard servers, each a full slimgraphd
// (internal/server) extended with a small /internal/v1 protocol.
//
// The design is storage-replicated: every shard holds the whole graph (raw
// or succinctly packed, traversed in place). Replicating storage is what
// keeps the paper's determinism contract intact: compression schemes key
// every random decision by global element ID (internal/core), so a variant
// computed on any replica is byte-identical to the single-node result,
// something no storage-partitioned execution of a global scheme (spanners,
// triangle reduction) could guarantee. The coordinator forwards one
// canonical (spec, seed, workers) key to every shard's single-flight cache,
// so each replica executes a requested scheme exactly once; if any shard
// fails mid-scatter the coordinator purges the key from the others rather
// than leave a partially replicated variant behind.
//
// Every query runs the single node's code, not copies of it; the
// coordinator only schedules. A query is a row of server.Kernels, the one
// list of servable kernels, and the row's shape is the plan. A kernel whose
// number of rounds depends on the graph — BFS levels, PageRank iterations —
// or that reads the whole graph at once (approximate triangles, §5 compare)
// runs whole on one replica, as one sub-request: a round trip per level or
// iteration would cost more than the work it distributes. A kernel that
// needs one round scatters parts (i, of) that a shard turns into its share
// locally — the degree-aware vertex range of graph.DegreeCuts (the split
// PartitionByDegree lays out) for degrees, a work-balanced vertex range of
// the count-only forward CSR (triangles.Forward.CountPart, on a Forward
// built for the sub-request) for exact counts — from nothing but the target
// graph, so ownership needs no metadata exchange and holds for variants
// whose vertex count differs from the original. No threshold or option
// chooses between the two. The coordinator then runs the row's own Finish,
// the function a single node runs, so responses are byte-identical to
// internal/server's at every worker count by construction (the cluster
// tests pin it too). Every compute reply but compare's is a fixed-width
// little-endian frame (protocol.go), a copy per element rather than a
// decimal print and parse.
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
	// shard that exceeds it fails the request with a 502 — the coordinator
	// never hangs on a dead shard.
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
	// Retry shapes the sub-request retry policy (see resilience.RetryPolicy;
	// zero value = 3 attempts, 25ms base backoff, seeded jitter). Retries
	// apply only to idempotent sub-requests — compute routes, compress
	// (single-flight cached shard-side), probes — never to create or
	// purge.
	Retry resilience.RetryPolicy
	// RetryBudget caps retries per client request across its whole fan-out
	// (a variant's replication, a scatter, a whole row's failover). 0 means the
	// default of 16; negative disables retries entirely.
	RetryBudget int
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

// doRaw performs one HTTP exchange against a shard: method addr+path with
// optional query and body, returning a 2xx reply's body and turning any
// other reply into an *httpError.
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
	// scatter/gather fan-out: the coordinator's middleware put it in ctx,
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
	// keep-alive connection, and under retry load a leaked connection per
	// failed attempt compounds fast.
	io.Copy(io.Discard, io.LimitReader(resp.Body, 256<<10))
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("reading reply: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, errBody(resp.StatusCode, data)
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
