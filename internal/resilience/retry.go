package resilience

import (
	"context"
	"time"
)

// RetryPolicy retries transient failures with capped exponential backoff
// and deterministic seeded jitter. The zero value is usable and retries
// nothing beyond the first attempt; call withDefaults via Do for the
// standard 3-attempt policy.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per call, first included
	// (default 3; 1 disables retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 25ms); the
	// delay doubles per retry up to MaxDelay (default 1s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed keys the jitter: the delay before retry k of call key is
	// backoff(k) scaled by a factor in [0.5, 1) derived from
	// (Seed, key, k), so a replayed sequence of calls backs off
	// identically. Seed 0 is a valid seed.
	Seed uint64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// splitmix64 is the standard 64-bit mixer — a tiny, well-distributed hash
// for deterministic jitter (same finalizer internal/core keys scheme
// randomness with).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashString(s string) uint64 {
	// FNV-1a, inlined to keep the package dependency-free of hash/fnv's
	// allocation on the Sum path.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Backoff returns the deterministic delay before retry attempt k (k >= 1)
// of the call identified by key: BaseDelay<<(k-1) capped at MaxDelay, then
// scaled into [0.5, 1) by the seeded jitter.
func (p RetryPolicy) Backoff(key string, attempt int) time.Duration {
	p = p.withDefaults()
	d := p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay || d <= 0 { // <<= overflow guard
		d = p.MaxDelay
	}
	h := splitmix64(p.Seed ^ hashString(key) ^ uint64(attempt))
	// Map the top 53 bits to [0.5, 1).
	frac := 0.5 + 0.5*float64(h>>11)/float64(1<<53)
	return time.Duration(float64(d) * frac)
}

// Do runs attempt until it succeeds, returns a non-retryable error, or the
// policy is exhausted, returning the last error. retryable classifies
// errors (nil is never passed); key identifies the call for jitter
// determinism. Retries stop — and the in-flight error returns unchanged —
// when ctx is done (the parent request gave up). Do never retries a call
// whose error the caller can't rule side effects out for: that judgment is
// the caller's, expressed by passing MaxAttempts 1 or a retryable that
// returns false.
func (p RetryPolicy) Do(ctx context.Context, key string, retryable func(error) bool, attempt func() error) error {
	p = p.withDefaults()
	var err error
	for a := 1; ; a++ {
		if err = attempt(); err == nil {
			return nil
		}
		if a >= p.MaxAttempts || !retryable(err) || ctx.Err() != nil {
			return err
		}
		t := time.NewTimer(p.Backoff(key, a))
		select {
		case <-ctx.Done():
			t.Stop()
			return err
		case <-t.C:
		}
	}
}
