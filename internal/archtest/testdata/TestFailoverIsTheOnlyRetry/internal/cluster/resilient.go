package cluster

import "slimgraph/internal/resilience"

type Options struct{ Retry resilience.RetryPolicy } // want

// noRetry is the single-attempt policy.
func noRetry(o Options) resilience.RetryPolicy { return o.Retry } // want

// A failed sub-request goes to the next replica.
func failover(live []int) int { return live[0] }
