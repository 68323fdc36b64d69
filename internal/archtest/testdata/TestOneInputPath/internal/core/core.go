package core

import "slimgraph/internal/graph"

type SG struct{}

func (sg *SG) Graph() any { return nil } // want

// Materialize filters a CSR through FilterEdgeSet no more.
func (sg *SG) Materialize(g *graph.Graph) any {
	return g.FilterEdgeSet(nil, nil) // want
}
