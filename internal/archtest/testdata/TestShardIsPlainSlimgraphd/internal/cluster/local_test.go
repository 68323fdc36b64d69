package cluster

const gone = "/internal/v1/graphs"
