package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"slimgraph/internal/graph"
	"slimgraph/internal/graphio"
	"slimgraph/internal/metrics"
	"slimgraph/internal/obs"
	"slimgraph/internal/resilience"
	"slimgraph/internal/server"
	"slimgraph/internal/traverse"
)

// Coordinator serves the public slimgraphd API over N shard replicas: it
// implements server.Catalog and server.QueryBackend, so
// server.NewWithBackend(coord, coord, opts) is a drop-in cluster frontend.
// See the package comment for the replication and determinism model.
type Coordinator struct {
	opts   Options
	client *http.Client
	start  time.Time
	met    *coordMetrics // nil until Instrument; set before traffic

	// Resilience state (see resilient.go): one breaker and one pending-
	// repair queue per shard, the retry policy, and the prober lifecycle.
	retry      resilience.RetryPolicy
	breakers   []*resilience.Breaker
	repairs    []*repairQueue
	proberStop chan struct{}
	proberDone chan struct{}
	closeOnce  sync.Once

	// rotation picks each relay's first replica (see relay).
	rotation atomic.Uint64

	mu     sync.RWMutex
	graphs map[string]server.GraphInfo
}

// coordMetrics is the coordinator's sub-request telemetry: one series set
// per shard plus the aggregate histogram. The per-shard histograms share
// the aggregate's bucket layout, so merging the per-shard snapshots yields
// exactly the aggregate — the histogram analogue of MergeStats.
type coordMetrics struct {
	total    *obs.Histogram
	perShard []shardMetrics
}

type shardMetrics struct {
	requests *obs.Counter
	failures *obs.Counter
	latency  *obs.Histogram
	inflight *obs.Gauge
	up       *obs.Gauge
}

// NewCoordinator returns a coordinator over opts.Shards. Close releases
// its background prober when Options.ProbeInterval is set.
func NewCoordinator(opts Options) (*Coordinator, error) {
	if len(opts.Shards) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one shard")
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	c := &Coordinator{
		opts:   opts,
		client: client,
		start:  time.Now(),
		retry:  opts.retryPolicy(),
		graphs: map[string]server.GraphInfo{},
	}
	for i := range opts.Shards {
		i := i
		c.breakers = append(c.breakers, resilience.NewBreaker(resilience.BreakerOptions{
			Threshold: opts.BreakerThreshold,
			Cooldown:  opts.BreakerCooldown,
			OnChange: func(_, to resilience.BreakerState) {
				// A shard that just proved itself healthy settles its debts:
				// pending unloads, purges, and variant re-replications replay.
				if to == resilience.BreakerClosed {
					go c.drainRepairs(i)
				}
			},
		}))
		c.repairs = append(c.repairs, newRepairQueue())
	}
	if opts.ProbeInterval > 0 {
		c.proberStop = make(chan struct{})
		c.proberDone = make(chan struct{})
		go c.probeLoop()
	}
	return c, nil
}

// Shards returns the shard base URLs in rank order.
func (c *Coordinator) Shards() []string { return append([]string(nil), c.opts.Shards...) }

// Instrument registers the coordinator's sub-request telemetry on reg:
// per-shard request/failure counters, latency histograms, in-flight and
// up/down gauges, plus the cluster-wide aggregate histogram. Call it once
// during wiring, before the coordinator serves traffic — StartLocal and
// cmd/slimgraphd point it at the front server's registry so everything
// exposes on one /metrics.
func (c *Coordinator) Instrument(reg *obs.Registry) {
	m := &coordMetrics{
		total: reg.Histogram("slimgraph_cluster_subrequest_seconds",
			"Coordinator→shard sub-request latency in seconds, all shards.", nil),
	}
	for i := range c.opts.Shards {
		l := obs.Label{Key: "shard", Value: strconv.Itoa(i)}
		m.perShard = append(m.perShard, shardMetrics{
			requests: reg.Counter("slimgraph_shard_requests_total",
				"Sub-requests sent to the shard.", l),
			failures: reg.Counter("slimgraph_shard_failures_total",
				"Sub-requests that failed at transport level or with a 5xx.", l),
			latency: reg.Histogram("slimgraph_shard_request_seconds",
				"Sub-request latency in seconds, per shard.", nil, l),
			inflight: reg.Gauge("slimgraph_shard_inflight",
				"Sub-requests to the shard outstanding right now.", l),
			up: reg.Gauge("slimgraph_shard_up",
				"1 when the shard's most recent sub-request succeeded (4xx counts as up: the shard answered).", l),
		})
		b := c.breakers[i]
		reg.GaugeFunc("slimgraph_shard_breaker_state",
			"Shard circuit breaker position: 0 closed, 1 half-open, 2 open.",
			func() float64 { return float64(b.State()) }, l)
		q := c.repairs[i]
		reg.GaugeFunc("slimgraph_shard_pending_repairs",
			"Replica-consistency operations queued for replay when the shard recovers.",
			func() float64 { return float64(q.size()) }, l)
	}
	c.met = m
}

// observe wraps one sub-request attempt to shard i with the telemetry:
// request count, in-flight, latency (per shard and aggregate), the up
// gauge, and the shard's circuit breaker. A 4xx shard reply leaves the
// shard up — it answered; only transport failures, timeouts, and 5xx mark
// it down and count as failures. A canceled parent context says nothing
// about the shard (the client hung up), so it bypasses the breaker.
func (c *Coordinator) observe(i int, fn func() error) error {
	var sm *shardMetrics
	if m := c.met; m != nil {
		sm = &m.perShard[i]
		sm.inflight.Add(1)
	}
	start := time.Now()
	err := fn()
	elapsed := time.Since(start).Seconds()
	if sm != nil {
		sm.inflight.Add(-1)
		sm.requests.Inc()
		sm.latency.Observe(elapsed)
		c.met.total.Observe(elapsed)
	}
	var he *httpError
	if err == nil || (errors.As(err, &he) && he.code < 500) {
		if sm != nil {
			sm.up.Set(1)
		}
		c.breakers[i].RecordSuccess()
	} else {
		if sm != nil {
			sm.failures.Inc()
			sm.up.Set(0)
		}
		if !errors.Is(err, context.Canceled) {
			c.breakers[i].RecordFailure()
		}
	}
	return err
}

// Ready probes every shard's /readyz concurrently — each probe bounded by
// ShardTimeout — returning the first failure in shard order: the readiness
// check cmd/slimgraphd installs on the coordinator's own /readyz.
// Readiness deliberately ignores breakers: it is the ground-truth poll
// that feeds them.
func (c *Coordinator) Ready() error {
	errs := c.scatterOver(context.Background(), c.allShards(), "readyz", c.noRetry(),
		func(ctx context.Context, _, _ int, addr string) error {
			return doJSON(ctx, c.client, http.MethodGet, addr, "/readyz", nil, "", nil, nil)
		})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d (%s): %v", i, c.opts.Shards[i], err)
		}
	}
	return nil
}

// rejection returns the client-facing form of a shard's 4xx reply, nil for
// any other error. A 4xx is the request's fault (validation: unknown scheme,
// bad root, missing graph) and every replica rejects it identically, so the
// first one seen is THE error and relays verbatim — byte-identical to a
// single node's.
func rejection(err error) error {
	var he *httpError
	if errors.As(err, &he) && he.code >= 400 && he.code < 500 {
		return server.Errf(he.code, "%s", he.msg)
	}
	return nil
}

// mergeErrorsOver reduces per-shard errors (positional, from scatterOver
// over shards) to one client-facing error: the first rejection relays
// verbatim, while transport failures, timeouts, and 5xx surface as 502
// naming the first failing shard.
func (c *Coordinator) mergeErrorsOver(shards []int, errs []error) error {
	var firstPos = -1
	for pos, err := range errs {
		if err == nil {
			continue
		}
		if rejected := rejection(err); rejected != nil {
			return rejected
		}
		if firstPos < 0 {
			firstPos = pos
		}
	}
	if firstPos < 0 {
		return nil
	}
	i := shards[firstPos]
	return server.Errf(http.StatusBadGateway, "shard %d (%s): %v",
		i, c.opts.Shards[i], errs[firstPos])
}

// --- server.Catalog --------------------------------------------------------

// Create replicates g to every shard: packed once into the succinct v2
// snapshot (the PR 3 representation — the cheapest bytes to ship), loaded
// by each shard under the client's memory policy. A partial failure rolls
// back the shards that succeeded, so the catalog never diverges. Create is
// deliberately strict — it requires full membership and never blind-retries
// (a retried load that half-landed would 409) — so a down shard fails the
// create rather than admitting a graph some replica doesn't hold.
func (c *Coordinator) Create(ctx context.Context, name, memory, source string, g *graph.Graph, workers int) (*server.GraphInfo, error) {
	var buf bytes.Buffer
	if _, err := graphio.WritePacked(&buf, g); err != nil {
		return nil, server.Errf(http.StatusInternalServerError, "packing graph for replication: %v", err)
	}
	data := buf.Bytes()
	q := url.Values{}
	q.Set("name", name)
	q.Set("memory", memory)
	q.Set("source", source)
	q.Set("workers", strconv.Itoa(workers))
	if g.Directed() {
		q.Set("directed", "true")
	}
	infos := make([]server.GraphInfo, len(c.opts.Shards))
	all := c.allShards()
	errs := c.scatterOver(ctx, all, "create:"+name, c.noRetry(), func(ctx context.Context, _, i int, addr string) error {
		return doJSON(ctx, c.client, http.MethodPost, addr, "/internal/v1/graphs", q,
			"application/octet-stream", bytes.NewReader(data), &infos[i])
	})
	if err := c.mergeErrorsOver(all, errs); err != nil {
		// Roll back the shards that accepted the graph; the ones that
		// failed (or already held the name) are left untouched.
		c.scatterOver(context.Background(), all, "create-rollback:"+name, c.noRetry(),
			func(ctx context.Context, _, i int, addr string) error {
				if errs[i] != nil {
					return nil
				}
				return doJSON(ctx, c.client, http.MethodDelete, addr, "/internal/v1/graphs/"+url.PathEscape(name), nil, "", nil, nil)
			})
		return nil, err
	}
	info := infos[0]
	c.mu.Lock()
	c.graphs[name] = info
	c.mu.Unlock()
	return &info, nil
}

// Info implements server.Catalog from the coordinator's metadata.
func (c *Coordinator) Info(_ context.Context, name string) (*server.GraphInfo, error) {
	c.mu.RLock()
	info, ok := c.graphs[name]
	c.mu.RUnlock()
	if !ok {
		return nil, server.Errf(http.StatusNotFound, "no graph %q", name)
	}
	return &info, nil
}

// List implements server.Catalog.
func (c *Coordinator) List(_ context.Context) ([]server.GraphInfo, error) {
	c.mu.RLock()
	out := make([]server.GraphInfo, 0, len(c.graphs))
	for _, info := range c.graphs {
		out = append(out, info)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Drop removes the graph from every shard. VariantsDropped reports the
// largest per-shard count (replicas hold identical variant sets in steady
// state, so this is normally every shard's number). Drop is idempotent
// across an unreachable shard: instead of failing, the unload is recorded
// as a pending repair and replayed when that shard's breaker closes, so no
// stale replica survives recovery.
func (c *Coordinator) Drop(ctx context.Context, name string) (*server.DeleteResponse, error) {
	ctx = c.withBudget(ctx)
	c.mu.Lock()
	_, ok := c.graphs[name]
	delete(c.graphs, name)
	c.mu.Unlock()
	if !ok {
		return nil, server.Errf(http.StatusNotFound, "no graph %q", name)
	}
	dropped := 0
	var mu sync.Mutex
	live := c.liveShards()
	errs := c.scatterOver(ctx, live, "drop:"+name, c.retry, func(ctx context.Context, _, i int, addr string) error {
		var resp server.DeleteResponse
		err := doJSON(ctx, c.client, http.MethodDelete, addr, "/internal/v1/graphs/"+url.PathEscape(name), nil, "", nil, &resp)
		if err == nil {
			mu.Lock()
			if resp.VariantsDropped > dropped {
				dropped = resp.VariantsDropped
			}
			mu.Unlock()
		}
		return err
	})
	for pos, err := range errs {
		var he *httpError
		switch {
		case errors.As(err, &he) && he.code == http.StatusNotFound:
			// Already lost the graph: the desired state.
			errs[pos] = nil
		case err != nil && shardFatal(err):
			// Unreachable or failing: owe it the unload instead of failing a
			// delete the healthy replicas already applied.
			c.queueRepair(live[pos], repairOp{kind: "unload", graph: name})
			errs[pos] = nil
		}
	}
	for _, i := range c.deadShards(live) {
		c.queueRepair(i, repairOp{kind: "unload", graph: name})
	}
	if err := c.mergeErrorsOver(live, errs); err != nil {
		return nil, err
	}
	return &server.DeleteResponse{Deleted: name, VariantsDropped: dropped}, nil
}

// deadShards returns the complement of live — the shards a cluster-wide
// write owes a repair to.
func (c *Coordinator) deadShards(live []int) []int {
	inLive := make(map[int]bool, len(live))
	for _, i := range live {
		inLive[i] = true
	}
	var dead []int
	for i := range c.opts.Shards {
		if !inLive[i] {
			dead = append(dead, i)
		}
	}
	return dead
}

// --- server.QueryBackend ---------------------------------------------------

// Compress replicates one variant: the same (spec, seed, workers) request
// goes to every live shard's public compress endpoint, so each replica's
// single-flight cache executes the scheme exactly once and then serves
// identical bytes (schemes are pure functions of graph, canonical spec,
// and seed). On a partial failure among the live shards the coordinator
// purges the key from the ones that succeeded — the client saw an error,
// so no replica may keep the variant.
//
// With a shard's breaker open, Compress degrades to a quorum write: the
// variant lands on the live majority, the response merges from them, and
// the missed replica is owed a compress repair that replays when its
// breaker closes. Determinism makes this sound — the repaired replica
// computes byte-identical variant bytes from the same (spec, seed) — and a
// partial query served meanwhile hits only live shards, which all hold the
// variant. Below a majority the write is refused (503): accepting it would
// let a minority serve a variant most of the cluster never saw.
//
// A shard admitted on a half-open breaker is a probe of a shard that was
// dead a moment ago. If the probe fails during the write, the shard is what
// it was before it — dead, owed the same compress repair — and the write
// still stands on the live majority rather than failing the client.
func (c *Coordinator) Compress(ctx context.Context, name, spec string, p server.QueryParams) (*server.CompressResponse, error) {
	ctx = c.withBudget(ctx)
	if _, err := c.Info(ctx, name); err != nil {
		return nil, err
	}
	live := c.liveShards()
	if len(live)*2 <= len(c.opts.Shards) {
		return nil, server.Errf(http.StatusServiceUnavailable,
			"compress quorum lost: %d of %d shards live", len(live), len(c.opts.Shards))
	}
	probe := make([]bool, len(live))
	for pos, i := range live {
		probe[pos] = c.breakers[i].State() == resilience.BreakerHalfOpen
	}
	resps := make([]server.CompressResponse, len(live))
	req := server.CompressRequest{Spec: spec, Seed: p.Seed, Workers: p.Workers}
	errs := c.scatterOver(ctx, live, "compress:"+name, c.retry, func(ctx context.Context, pos, _ int, addr string) error {
		return postJSON(ctx, c.client, addr, "/v1/graphs/"+url.PathEscape(name)+"/compress", req, &resps[pos])
	})
	var (
		okLive  []int
		okResps []server.CompressResponse
		okErrs  []error
	)
	for pos, i := range live {
		if probe[pos] && errs[pos] != nil && shardFatal(errs[pos]) {
			continue // a failed probe: still dead
		}
		okLive, okResps, okErrs = append(okLive, i), append(okResps, resps[pos]), append(okErrs, errs[pos])
	}
	if len(okLive)*2 > len(c.opts.Shards) {
		live, resps, errs = okLive, okResps, okErrs
	}
	if err := c.mergeErrorsOver(live, errs); err != nil {
		c.purgeVariant(name, spec, p)
		return nil, err
	}
	merged := resps[0]
	for pos := 1; pos < len(resps); pos++ {
		r := resps[pos]
		if r.Spec != merged.Spec || r.N != merged.N || r.M != merged.M {
			return nil, server.Errf(http.StatusBadGateway,
				"replicas disagree on variant %q of %q: shard %d got n=%d m=%d spec=%q, shard %d got n=%d m=%d spec=%q",
				spec, name, live[0], merged.N, merged.M, merged.Spec, live[pos], r.N, r.M, r.Spec)
		}
		merged.Cached = merged.Cached && r.Cached
		if r.ElapsedMS > merged.ElapsedMS {
			merged.ElapsedMS = r.ElapsedMS
		}
	}
	for _, i := range c.deadShards(live) {
		c.queueRepair(i, repairOp{kind: "compress", graph: name, spec: spec, seed: p.Seed, workers: p.Workers})
	}
	return &merged, nil
}

// purgeVariant drops a variant key from every live shard after a partial
// failure, and owes dead or still-failing shards a purge repair. A shard
// still executing the scheme (the timeout case) inserts when it finishes;
// the next successful Compress for the key will simply find it cached —
// correctness is unaffected since variants are deterministic. Purges never
// blind-retry: the repair queue is the durable retry.
func (c *Coordinator) purgeVariant(name, spec string, p server.QueryParams) {
	req := purgeRequest{Spec: spec, Seed: p.Seed, Workers: p.Workers}
	live := c.liveShards()
	errs := c.scatterOver(context.Background(), live, "purge:"+name, c.noRetry(),
		func(ctx context.Context, _, i int, addr string) error {
			return postJSON(ctx, c.client, addr, "/internal/v1/graphs/"+url.PathEscape(name)+"/purge", req, nil)
		})
	op := repairOp{kind: "purge", graph: name, spec: spec, seed: p.Seed, workers: p.Workers}
	for pos, err := range errs {
		if err != nil && shardFatal(err) {
			c.queueRepair(live[pos], op)
		}
	}
	for _, i := range c.deadShards(live) {
		c.queueRepair(i, op)
	}
}

// target resolves what a query runs on: (vertex count, canonical spec).
// With a spec it first replicates the variant cluster-wide via Compress —
// after which every partial request is a shard-local cache hit.
func (c *Coordinator) target(ctx context.Context, name string, p server.QueryParams) (n int, canonical string, err error) {
	info, err := c.Info(ctx, name)
	if err != nil {
		return 0, "", err
	}
	if p.Spec == "" {
		return info.N, "", nil
	}
	cr, err := c.Compress(ctx, name, p.Spec, p)
	if err != nil {
		return 0, "", err
	}
	return cr.N, cr.Spec, nil
}

// scatterParts runs one partial computation over the live shard set: part
// k of `of` goes to the k-th live shard, which derives its share from
// (k, of) locally — part index and shard rank are independent, so ANY
// shard can serve ANY part. visit sees each part's reply, at most max
// elements, in part order; v is valid only during the call.
//
// Failure handling is re-partition-and-retry: a shard whose sub-request
// fails fatally (after the retry policy's attempts; a reply that is not a
// whole frame counts) is blacklisted and the WHOLE part set re-scatters
// over the survivors with the new `of`. Correctness is unaffected —
// partition ranges are pure functions of (part, of) and partial kernels
// pure functions of (graph, range), so the merged response stays
// byte-identical to single-node no matter how many survivors serve it.
// Replies are decoded and visited only after a fully successful scatter,
// so a half-failed one leaves nothing behind. A 4xx relays verbatim
// immediately: every replica rejects an invalid request identically.
func scatterParts[T elem](ctx context.Context, c *Coordinator, name, route string, p server.QueryParams, max int, visit func(scalars [3]int64, v []T)) error {
	path := "/internal/v1/graphs/" + url.PathEscape(name) + "/part/" + route
	raws := make([][]byte, len(c.opts.Shards))
	var bad map[int]bool
	var lastErr error
	lastShard := -1
	for {
		candidates := c.liveShards()
		if bad != nil {
			candidates = slices.DeleteFunc(candidates, func(i int) bool { return bad[i] })
		}
		if len(candidates) == 0 || ctx.Err() != nil {
			if lastShard < 0 {
				return server.Errf(http.StatusBadGateway, "no live shards for %s", name)
			}
			return server.Errf(http.StatusBadGateway, "shard %d (%s): %v",
				lastShard, c.opts.Shards[lastShard], lastErr)
		}
		of := len(candidates)
		errs := c.scatterOver(ctx, candidates, "part:"+route, c.retry, func(ctx context.Context, pos, _ int, addr string) error {
			q := url.Values{"shard": {strconv.Itoa(pos)}, "of": {strconv.Itoa(of)}}
			addCommonParams(q, p)
			data, err := doRaw(ctx, c.client, http.MethodPost, addr, path, q, "", nil)
			if err == nil {
				_, err = checkFrame(data, widthOf[T](), max)
			}
			raws[pos] = data
			return err
		})
		failed := false
		for pos, err := range errs {
			if err == nil {
				continue
			}
			if rejected := rejection(err); rejected != nil {
				return rejected
			}
			if bad == nil {
				bad = make(map[int]bool)
			}
			bad[candidates[pos]] = true
			lastErr, lastShard = err, candidates[pos]
			failed = true
		}
		if failed {
			continue
		}
		var buf []T
		for pos := range of {
			scalars, v, err := decodeFrame(buf, raws[pos], max)
			if err != nil {
				return server.Errf(http.StatusBadGateway, "decoding part %d from shard %d: %v", pos, candidates[pos], err)
			}
			buf = v
			visit(scalars, v)
		}
		return nil
	}
}

// wholeVector runs a whole-kernel route on one live replica (relay) and
// returns its reply vector, which must carry exactly n elements: a shorter
// or longer frame is a torn reply that fails over, never a different-length
// answer.
func wholeVector[T elem](ctx context.Context, c *Coordinator, name, route string, q url.Values, p server.QueryParams, n int) ([]T, error) {
	addCommonParams(q, p)
	var v []T
	err := c.relay(ctx, http.MethodPost, "/internal/v1/graphs/"+url.PathEscape(name)+"/whole/"+route, q, func(reply []byte) error {
		_, got, err := decodeFrame[T](nil, reply, n)
		if err == nil && len(got) != n {
			err = fmt.Errorf("reply carries %d elements, want %d", len(got), n)
		}
		v = got
		return err
	})
	return v, err
}

// BFS runs traverse.BFS whole on one live replica, which answers the
// distance array; traverse.BFSResult summarises it here as on a single
// node. The number of levels depends on the graph, so the search is never
// split into rounds: every replica holds the whole graph, and a round trip
// per level would cost more than the level.
func (c *Coordinator) BFS(ctx context.Context, name string, root int32, p server.QueryParams) (*server.BFSResponse, error) {
	ctx = c.withBudget(ctx)
	n, canonical, err := c.target(ctx, name, p)
	if err != nil {
		return nil, err
	}
	p.Spec = canonical
	dist, err := wholeVector[int32](ctx, c, name, "bfs", url.Values{"root": {strconv.Itoa(int(root))}}, p, n)
	if err != nil {
		return nil, err
	}
	res := traverse.BFSResult{Dist: dist}
	return &server.BFSResponse{
		Graph: name, Spec: canonical, Root: root,
		Reached: res.Reached(), Ecc: res.Ecc(), Dist: dist,
	}, nil
}

// PageRank runs centrality.PageRank whole on one live replica at the
// request's worker count, which answers the rank vector as IEEE-754 bit
// patterns; server.TopK ranks it here as on a single node, so the scores
// are bit-identical to a single node's at every worker count. Like BFS,
// the iteration count depends on the graph, so it is one sub-request.
func (c *Coordinator) PageRank(ctx context.Context, name string, k int, p server.QueryParams) (*server.PageRankResponse, error) {
	ctx = c.withBudget(ctx)
	n, canonical, err := c.target(ctx, name, p)
	if err != nil {
		return nil, err
	}
	p.Spec = canonical
	ranks, err := wholeVector[float64](ctx, c, name, "pagerank", url.Values{}, p, n)
	if err != nil {
		return nil, err
	}
	return &server.PageRankResponse{Graph: name, Spec: canonical, K: k, Top: server.TopK(ranks, k)}, nil
}

// Triangles counts exactly by summing triangles.Engine.CountPart over the
// parts (each triangle lands in the work slice holding its rank-lowest
// edge; integer sums are exact in any order). mode=approx (DOULION) relays
// to one live replica: the estimate samples edges by global edge ID, so any
// single replica computes the canonical answer.
func (c *Coordinator) Triangles(ctx context.Context, name, mode string, prob float64, p server.QueryParams) (*server.TrianglesResponse, error) {
	ctx = c.withBudget(ctx)
	if mode == "approx" {
		q := url.Values{}
		q.Set("mode", "approx")
		q.Set("p", strconv.FormatFloat(prob, 'g', -1, 64))
		addCommonParams(q, p)
		var resp server.TrianglesResponse
		if err := c.relay(ctx, http.MethodGet, "/v1/graphs/"+url.PathEscape(name)+"/triangles", q, jsonInto(&resp)); err != nil {
			return nil, err
		}
		return &resp, nil
	}
	_, canonical, err := c.target(ctx, name, p)
	if err != nil {
		return nil, err
	}
	p.Spec = canonical
	var total int64
	err = scatterParts(ctx, c, name, "triangles", p, 0, func(count [3]int64, _ []int64) {
		total += count[0]
	})
	if err != nil {
		return nil, err
	}
	return &server.TrianglesResponse{Graph: name, Spec: canonical, Mode: mode, Count: &total}, nil
}

// Degrees adds up the per-part degree histograms (integer sums, exact in any
// order) and finishes with the histogram → distribution step and power-law
// fit metrics.DegreeDistribution + PowerLawSlope run on one node.
func (c *Coordinator) Degrees(ctx context.Context, name string, p server.QueryParams) (*server.DegreesResponse, error) {
	ctx = c.withBudget(ctx)
	n, canonical, err := c.target(ctx, name, p)
	if err != nil {
		return nil, err
	}
	p.Spec = canonical
	var hist []int64
	err = scatterParts(ctx, c, name, "degrees", p, n, func(_ [3]int64, counts []int64) {
		hist = metrics.AddHistogram(hist, counts)
	})
	if err != nil {
		return nil, err
	}
	dist := metrics.Distribution(hist, n)
	slope, r2 := metrics.PowerLawSlope(dist)
	return &server.DegreesResponse{Graph: name, Spec: canonical, Dist: dist, Slope: slope, R2: r2}, nil
}

// Compare relays the §5 quality comparison to one live replica: it needs
// the whole original and the whole variant side by side, which every
// replica holds.
func (c *Coordinator) Compare(ctx context.Context, name string, p server.QueryParams) (*server.CompareResponse, error) {
	q := url.Values{}
	addCommonParams(q, p)
	var resp server.CompareResponse
	if err := c.relay(ctx, http.MethodGet, "/v1/graphs/"+url.PathEscape(name)+"/compare", q, jsonInto(&resp)); err != nil {
		return nil, err
	}
	return &resp, nil
}

// relay runs one request whole on one live replica. The first choice
// rotates across the live set per call, so whole queries spread over the
// replicas instead of all landing on shard 0; a shard that fails fatally
// (after the retry policy's attempts, under the request's retry budget) is
// passed over for the next live one. Full replication plus globally-keyed
// randomness makes every replica's answer byte-identical, so which one
// serves is invisible to the client. A 4xx relays verbatim (every replica
// rejects identically). decode turns a 2xx reply into the answer; its error
// is the shard's — a torn reply — and fails over like any other, so only
// a whole reply is ever answered.
func (c *Coordinator) relay(ctx context.Context, method, path string, q url.Values, decode func(reply []byte) error) error {
	ctx = c.withBudget(ctx)
	live := c.liveShards()
	first := int((c.rotation.Add(1) - 1) % uint64(len(live)))
	var lastErr error
	lastShard := -1
	for k := range live {
		i := live[(first+k)%len(live)]
		addr := c.opts.Shards[i]
		err := c.callShard(ctx, i, "relay:"+path, c.retry, func(actx context.Context) error {
			data, err := doRaw(actx, c.client, method, addr, path, q, "", nil)
			if err == nil {
				err = decode(data)
			}
			return err
		})
		if err == nil {
			return nil
		}
		if rejected := rejection(err); rejected != nil {
			return rejected
		}
		lastErr, lastShard = err, i
		if ctx.Err() != nil {
			break
		}
	}
	return server.Errf(http.StatusBadGateway, "shard %d (%s): %v", lastShard, c.opts.Shards[lastShard], lastErr)
}

func addCommonParams(q url.Values, p server.QueryParams) {
	if p.Spec != "" {
		q.Set("spec", p.Spec)
	}
	q.Set("seed", strconv.FormatUint(p.Seed, 10))
	q.Set("workers", strconv.Itoa(p.Workers))
}

// Stats gathers every live shard's /v1/stats and merges them: cluster-wide
// counter sums with the per-shard breakdown attached. Graphs is the
// logical catalog size (each graph is replicated everywhere, so summing
// shard counts would overstate it N-fold). A breaker-open shard keeps its
// row — breaker state, pending repair count, Ready false — but contributes
// no cache numbers; the aggregate describes what the live cluster holds.
func (c *Coordinator) Stats(ctx context.Context) (*server.StatsResponse, error) {
	ctx = c.withBudget(ctx)
	per := make([]server.ShardStats, len(c.opts.Shards))
	for i, addr := range c.opts.Shards {
		per[i] = server.ShardStats{Shard: i, Addr: addr}
	}
	live := c.liveShards()
	errs := c.scatterOver(ctx, live, "stats", c.retry, func(ctx context.Context, _, i int, addr string) error {
		var resp server.StatsResponse
		if err := doJSON(ctx, c.client, http.MethodGet, addr, "/v1/stats", nil, "", nil, &resp); err != nil {
			return err
		}
		per[i].Cache = resp.Cache
		per[i].Graphs = resp.Graphs
		return nil
	})
	if err := c.mergeErrorsOver(live, errs); err != nil {
		return nil, err
	}
	for i := range per {
		per[i].Breaker = c.breakers[i].State().String()
		per[i].PendingRepairs = c.repairs[i].size()
	}
	c.mu.RLock()
	graphs := len(c.graphs)
	c.mu.RUnlock()
	resp := MergeStats(graphs, per)
	resp.UptimeSeconds = time.Since(c.start).Seconds()
	build := obs.Build()
	resp.Build = &build
	// Attach the sub-request telemetry (which by now includes the stats
	// gather itself). The per-shard latency snapshots merge to exactly the
	// SubRequests aggregate — same bucket layout, observed pairwise.
	if m := c.met; m != nil {
		total := m.total.Snapshot()
		resp.SubRequests = &total
		for i := range resp.PerShard {
			sm := &m.perShard[i]
			lat := sm.latency.Snapshot()
			resp.PerShard[i].Ready = sm.up.Value() == 1
			resp.PerShard[i].Requests = sm.requests.Value()
			resp.PerShard[i].InFlight = int64(sm.inflight.Value())
			resp.PerShard[i].Latency = &lat
		}
	}
	return resp, nil
}

// MergeStats combines per-shard stats into the aggregated cluster
// response: every cache counter sums across shards (Capacity and Entries
// included — they describe cluster-wide cache capacity and residency),
// graphs is the logical catalog size.
func MergeStats(graphs int, per []server.ShardStats) *server.StatsResponse {
	var sum server.CacheStats
	for _, s := range per {
		sum.Hits += s.Cache.Hits
		sum.Coalesced += s.Cache.Coalesced
		sum.Misses += s.Cache.Misses
		sum.Executions += s.Cache.Executions
		sum.Failures += s.Cache.Failures
		sum.Evictions += s.Cache.Evictions
		sum.Entries += s.Cache.Entries
		sum.Capacity += s.Cache.Capacity
	}
	return &server.StatsResponse{Cache: sum, Graphs: graphs, PerShard: per}
}

var (
	_ server.Catalog      = (*Coordinator)(nil)
	_ server.QueryBackend = (*Coordinator)(nil)
)
