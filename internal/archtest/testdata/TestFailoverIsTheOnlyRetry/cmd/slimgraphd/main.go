package main

import "flag"

var retries = flag.Int("retries", 0, "sub-request attempts per shard call") // want

var cooldown = flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe")
