package server

import "slimgraph/internal/triangles"

var oracle = triangles.NewEngine(nil, 1)
