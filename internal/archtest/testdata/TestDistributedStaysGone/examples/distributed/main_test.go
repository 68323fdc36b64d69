package main

import "slimgraph/internal/distributed" // want

func init() { distributed.Run() }
