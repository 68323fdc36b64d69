package resilience

import "time"

type RetryPolicy struct{ MaxAttempts int } // want

func (p RetryPolicy) Backoff(attempt int) time.Duration { return time.Duration(attempt) } // want
