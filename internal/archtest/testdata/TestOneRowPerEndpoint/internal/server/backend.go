package server

type QueryBackend interface {
	Query(name string) (any, error)
	Triangles(name string) (any, error) // want
}
