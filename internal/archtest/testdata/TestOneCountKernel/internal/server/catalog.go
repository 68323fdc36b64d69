package server

import "slimgraph/internal/triangles"

type entry struct {
	engine *triangles.Engine // want
	fwd    *triangles.Forward
}

func (e *entry) build() { e.engine = triangles.NewEngine(nil, 1) } // want
