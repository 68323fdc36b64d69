package server

import "net/http"

type Server struct{ mux *http.ServeMux }

func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) } // want
