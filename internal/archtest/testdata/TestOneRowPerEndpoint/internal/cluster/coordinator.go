package cluster

type Coordinator struct{}

func (c *Coordinator) PageRank(name string) (any, error) { return nil, nil } // want

func wholeBFS(name string) {} // want

var route = partDegrees // want

func partDegrees() {} // want
