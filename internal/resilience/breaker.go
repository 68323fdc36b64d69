// Package resilience holds slimgraphd's fault-tolerance primitives: a
// per-peer circuit breaker, deadline propagation over HTTP headers, and a
// deterministic fault-injection layer for chaos testing. None of it carries
// an opinion about what it protects — the cluster coordinator wires these
// around its shard sub-requests, and the server wires the deadline and
// admission pieces around its handlers.
//
// The design constraint inherited from the rest of the system is
// determinism: the fault injector makes every drop/delay/500 decision from
// a seeded counter (internal/rng's SplitMix64, not the global RNG) so a
// chaos run replays identically, and the breaker's clock is injectable so
// tests step time instead of sleeping.
package resilience

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed lets traffic through; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen lets a probe through after the open cooldown; its
	// outcome decides between closing and re-opening.
	BreakerHalfOpen
	// BreakerOpen fails fast: the peer is presumed down until the cooldown
	// elapses.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// BreakerOptions configures a Breaker.
type BreakerOptions struct {
	// Threshold is the number of consecutive failures that opens the
	// breaker (default 3).
	Threshold int
	// Cooldown is how long the breaker stays open before allowing a
	// half-open probe (default 5s). A failure while open re-stamps the
	// cooldown: it keeps counting from the most recent evidence of trouble.
	Cooldown time.Duration
	// OnChange, when non-nil, is called synchronously (outside the
	// breaker's lock) after every state transition.
	OnChange func(from, to BreakerState)
	// Now overrides the clock (tests step time instead of sleeping).
	Now func() time.Time
}

func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.Threshold <= 0 {
		o.Threshold = 3
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 5 * time.Second
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Breaker is a consecutive-failure circuit breaker. It is a routing
// signal, not a hard gate: callers consult Routable to decide where to send
// traffic and report outcomes with RecordSuccess/RecordFailure; nothing
// stops a caller from contacting an open peer (the health prober does,
// deliberately). Safe for concurrent use.
type Breaker struct {
	opts BreakerOptions

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // last transition into (or failure while) open
}

// NewBreaker returns a closed breaker.
func NewBreaker(opts BreakerOptions) *Breaker {
	return &Breaker{opts: opts.withDefaults()}
}

// State returns the current state without side effects.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Routable reports whether traffic should be routed to the peer. Closed
// and half-open peers are routable; an open peer becomes routable — and
// transitions to half-open, making this call the probe decision — once the
// cooldown has elapsed.
func (b *Breaker) Routable() bool {
	b.mu.Lock()
	from := b.state
	switch b.state {
	case BreakerClosed, BreakerHalfOpen:
		b.mu.Unlock()
		return true
	default:
		if b.opts.Now().Sub(b.openedAt) < b.opts.Cooldown {
			b.mu.Unlock()
			return false
		}
		b.state = BreakerHalfOpen
		b.mu.Unlock()
		b.notify(from, BreakerHalfOpen)
		return true
	}
}

// RecordSuccess reports a successful exchange with the peer: any state
// returns to closed and the failure count resets.
func (b *Breaker) RecordSuccess() {
	b.mu.Lock()
	from := b.state
	b.state = BreakerClosed
	b.failures = 0
	b.mu.Unlock()
	if from != BreakerClosed {
		b.notify(from, BreakerClosed)
	}
}

// RecordFailure reports a failed exchange. Closed: one more consecutive
// failure, opening at the threshold. Half-open: the probe failed, back to
// open. Open: re-stamp the cooldown.
func (b *Breaker) RecordFailure() {
	b.mu.Lock()
	from := b.state
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures < b.opts.Threshold {
			b.mu.Unlock()
			return
		}
		b.state = BreakerOpen
		b.openedAt = b.opts.Now()
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = b.opts.Now()
	default:
		b.openedAt = b.opts.Now()
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	b.notify(from, BreakerOpen)
}

func (b *Breaker) notify(from, to BreakerState) {
	if b.opts.OnChange != nil && from != to {
		b.opts.OnChange(from, to)
	}
}
