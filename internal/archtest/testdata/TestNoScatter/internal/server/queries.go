package server

import "slimgraph/internal/graph"

// The shard answers on /part/degrees. // want
var cuts = graph.DegreeCuts(8, 2) // want

type Scatter struct{ route string } // want

func shape() Scatter { return Scatter{route: "part"} } // want

func merge(h []int64) { CountPart(h); AddHistogram(h) } // want

func CountPart(h []int64)    {} // want
func AddHistogram(h []int64) {} // want
