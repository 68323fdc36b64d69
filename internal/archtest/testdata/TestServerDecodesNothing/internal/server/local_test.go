package server

import "slimgraph/internal/succinct"

func reference(pg *succinct.PackedGraph) any { return pg.Unpack(0) }
