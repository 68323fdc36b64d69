package centrality

func Dangling(ranks []float64) float64 { return 0 } // want

func (p *puller) PullSums() {}

type puller struct{}
