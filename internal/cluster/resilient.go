package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"slimgraph/internal/resilience"
	"slimgraph/internal/server"
)

// This file is the coordinator's fault-tolerance layer: per-shard circuit
// breakers fed by the observe wrapper, live-set routing with re-partitioned
// degraded execution, retry with a per-request budget, a background health
// prober, and the pending-repair queue that makes drops and purges
// idempotent across an unreachable shard. Degraded execution keeps the
// byte-identity contract (see dispatch).

// retryPolicy returns the configured policy with defaults applied.
func (o Options) retryPolicy() resilience.RetryPolicy {
	p := o.Retry
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	return p
}

func (o Options) retryBudget() int64 {
	if o.RetryBudget > 0 {
		return int64(o.RetryBudget)
	}
	if o.RetryBudget < 0 {
		return 0
	}
	return 16
}

// noRetry is the single-attempt variant of the configured policy, for
// calls that must not blind-retry (create, purge) and for probes.
func (c *Coordinator) noRetry() resilience.RetryPolicy {
	p := c.retry
	p.MaxAttempts = 1
	return p
}

// withBudget attaches the per-request retry budget once at each public
// entry point; nested calls (target → Compress) inherit the caller's.
func (c *Coordinator) withBudget(ctx context.Context) context.Context {
	if resilience.RetryBudgetLeft(ctx) >= 0 {
		return ctx
	}
	return resilience.WithRetryBudget(ctx, c.opts.retryBudget())
}

// shardFatal classifies an error as evidence against the shard itself —
// transport failure, timeout, truncation, or a 5xx — as opposed to a 4xx
// the request earned on its own merits. Fatal errors drive failover, repair
// queueing and retries; 4xx errors relay to the client, never retried.
func shardFatal(err error) bool {
	var he *httpError
	if errors.As(err, &he) {
		return he.code >= 500
	}
	return true
}

// allShards returns [0..n) — the scatter set when health is ignored.
func (c *Coordinator) allShards() []int {
	all := make([]int, len(c.opts.Shards))
	for i := range all {
		all[i] = i
	}
	return all
}

// liveShards returns the breaker-routable shard set in ascending order.
// Consulting Routable doubles as the half-open probe decision: an open
// shard past its cooldown rejoins the set, and the next sub-request it
// serves (or fails) settles the breaker. If nothing is routable the full
// set returns — trying everyone beats failing without evidence, and any
// success closes that breaker.
func (c *Coordinator) liveShards() []int {
	live := make([]int, 0, len(c.opts.Shards))
	for i := range c.opts.Shards {
		if c.breakers[i].Routable() {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return c.allShards()
	}
	return live
}

// callShard runs one logical sub-request against shard i: each attempt
// gets its own ShardTimeout (so retries aren't squeezed into the first
// attempt's budget) and flows through observe, which feeds the telemetry
// and the breaker.
func (c *Coordinator) callShard(ctx context.Context, i int, key string, policy resilience.RetryPolicy, fn func(ctx context.Context) error) error {
	return policy.Do(ctx, key, shardFatal, func() error {
		actx, cancel := context.WithTimeout(ctx, c.opts.timeout())
		defer cancel()
		return c.observe(i, func() error { return fn(actx) })
	})
}

// scatterOver runs fn against the given shards concurrently under policy,
// returning errors positionally (errs[pos] belongs to shards[pos]).
func (c *Coordinator) scatterOver(ctx context.Context, shards []int, op string, policy resilience.RetryPolicy, fn func(ctx context.Context, pos, shard int, addr string) error) []error {
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for pos, i := range shards {
		wg.Add(1)
		go func(pos, i int) {
			defer wg.Done()
			errs[pos] = c.callShard(ctx, i, op+"/"+strconv.Itoa(i), policy, func(actx context.Context) error {
				return fn(actx, pos, i, c.opts.Shards[i])
			})
		}(pos, i)
	}
	wg.Wait()
	return errs
}

// --- pending repairs -------------------------------------------------------

// repairOp is one replica-consistency operation owed to a shard that was
// unreachable (or failed) when the cluster-wide operation ran: an unload
// from Drop, a variant purge from a failed Compress, or a variant
// re-replication from a quorum-write Compress. Ops replay in order when
// the shard's breaker closes.
type repairOp struct {
	kind    string // "unload" | "purge" | "compress"
	graph   string
	spec    string
	seed    uint64
	workers int
}

// repairQueue is one shard's deduplicated, ordered pending-repair list.
type repairQueue struct {
	mu       sync.Mutex
	ops      []repairOp
	seen     map[repairOp]bool
	draining atomic.Bool
}

func newRepairQueue() *repairQueue { return &repairQueue{seen: map[repairOp]bool{}} }

// add queues op unless it is already owed: at the back, or at the front
// for an op a failed drain puts back.
func (q *repairQueue) add(op repairOp, front bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.seen[op] {
		return
	}
	q.seen[op] = true
	if front {
		q.ops = append([]repairOp{op}, q.ops...)
	} else {
		q.ops = append(q.ops, op)
	}
}

func (q *repairQueue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ops)
}

func (q *repairQueue) take() (repairOp, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.ops) == 0 {
		return repairOp{}, false
	}
	op := q.ops[0]
	q.ops = q.ops[1:]
	delete(q.seen, op)
	return op, true
}

// queueRepair records an op owed to shard i. If the breaker is already
// closed (the shard recovered between the failure and this call, or the op
// failed against a live shard transiently), the drain starts immediately
// instead of waiting for a state transition that will never come.
func (c *Coordinator) queueRepair(i int, op repairOp) {
	c.repairs[i].add(op, false)
	if c.breakers[i].State() == resilience.BreakerClosed {
		go c.drainRepairs(i)
	}
}

// drainRepairs replays shard i's pending ops in order, stopping (and
// re-queueing the op) at the first shard-fatal error — the breaker has
// re-recorded the failure, and the next close retriggers the drain. A 4xx
// reply discards the op: its target no longer exists (e.g. a compress
// repair for a graph dropped in the meantime), which is the desired state.
func (c *Coordinator) drainRepairs(i int) {
	if !c.repairs[i].draining.CompareAndSwap(false, true) {
		return
	}
	defer c.repairs[i].draining.Store(false)
	for {
		op, ok := c.repairs[i].take()
		if !ok {
			return
		}
		if err := c.runRepair(context.Background(), i, op); err != nil && shardFatal(err) {
			c.repairs[i].add(op, true)
			return
		}
	}
}

func (c *Coordinator) runRepair(ctx context.Context, i int, op repairOp) error {
	addr := c.opts.Shards[i]
	return c.callShard(ctx, i, "repair:"+op.kind+":"+op.graph, c.noRetry(), func(actx context.Context) error {
		switch op.kind {
		case "unload":
			err := doJSON(actx, c.client, http.MethodDelete, addr,
				"/internal/v1/graphs/"+url.PathEscape(op.graph), nil, "", nil, nil)
			var he *httpError
			if errors.As(err, &he) && he.code == http.StatusNotFound {
				return nil // already gone: the state the unload wanted
			}
			return err
		case "purge":
			return postJSON(actx, c.client, addr,
				"/internal/v1/graphs/"+url.PathEscape(op.graph)+"/purge",
				purgeRequest{Spec: op.spec, Seed: op.seed, Workers: op.workers}, nil)
		default: // compress: re-replicate the variant this shard missed
			return postJSON(actx, c.client, addr,
				"/v1/graphs/"+url.PathEscape(op.graph)+"/compress",
				server.CompressRequest{Spec: op.spec, Seed: op.seed, Workers: op.workers}, nil)
		}
	})
}

// PendingRepairs reports shard i's queued repair count (surfaced in
// /v1/stats and polled by the recovery tests).
func (c *Coordinator) PendingRepairs(i int) int { return c.repairs[i].size() }

// BreakerState reports shard i's breaker position.
func (c *Coordinator) BreakerState(i int) resilience.BreakerState { return c.breakers[i].State() }

// --- health prober ---------------------------------------------------------

// probeLoop polls each routable shard's /readyz every ProbeInterval, so a
// dead shard's breaker opens before a user request pays the timeout and an
// open breaker's cooldown expiry is probed by a health check instead of a
// user's query. Open shards inside their cooldown are skipped — probing
// them would re-stamp the cooldown and pin the breaker open forever.
func (c *Coordinator) probeLoop() {
	defer close(c.proberDone)
	t := time.NewTicker(c.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.proberStop:
			return
		case <-t.C:
		}
		var wg sync.WaitGroup
		for i := range c.opts.Shards {
			if !c.breakers[i].Routable() {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				actx, cancel := context.WithTimeout(context.Background(), c.opts.timeout())
				defer cancel()
				_ = c.observe(i, func() error {
					return doJSON(actx, c.client, http.MethodGet, c.opts.Shards[i], "/readyz", nil, "", nil, nil)
				})
			}(i)
		}
		wg.Wait()
		// Catch repairs queued while the breaker was already closed but a
		// drain wasn't running (or a previous drain aborted mid-queue).
		for i := range c.opts.Shards {
			if c.repairs[i].size() > 0 && c.breakers[i].State() == resilience.BreakerClosed {
				go c.drainRepairs(i)
			}
		}
	}
}

// Close stops the background prober (a no-op when ProbeInterval was 0).
// The coordinator itself is stateless beyond that and needs no further
// teardown.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		if c.proberStop != nil {
			close(c.proberStop)
			<-c.proberDone
		}
	})
}
