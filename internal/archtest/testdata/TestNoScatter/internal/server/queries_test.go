package server

const partRoute = "/v1/graphs/g/part/bfs"
