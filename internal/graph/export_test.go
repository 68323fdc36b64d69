package graph

// HasWeightColumn reports whether g holds a canonical weight column, for the
// external tests that pin Weighted() to it.
func HasWeightColumn(g *Graph) bool { return g.edgeW != nil }
