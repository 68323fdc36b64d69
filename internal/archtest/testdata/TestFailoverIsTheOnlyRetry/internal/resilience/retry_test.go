package resilience

var policy = RetryPolicy{MaxAttempts: 3}
