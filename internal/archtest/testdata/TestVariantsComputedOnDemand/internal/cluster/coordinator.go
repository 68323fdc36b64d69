package cluster

const purgeRoute = "DELETE /v1/graphs/{name}/purge" // want

func (c *Coordinator) PurgeVariant(key string) {} // want

func quorum(n int) int { return n/2 + 1 } // want

type Coordinator struct{ writeQuorum int } // want
