package metrics

type Graph struct{}

func (g *Graph) CompareOn(h *Graph) bool { return g == h } // want
