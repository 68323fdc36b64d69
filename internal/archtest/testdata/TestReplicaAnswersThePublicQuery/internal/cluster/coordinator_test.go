package cluster

const wholeRoute = "/whole/bfs"
