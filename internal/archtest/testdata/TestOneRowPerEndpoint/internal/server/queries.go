package server

type Server struct{}

func (s *Server) bfs(name string) {} // want
