package cluster

import (
	"net/http"

	"slimgraph/internal/resilience"
	"slimgraph/internal/server"
)

const loadRoute = "POST /internal/v1/graphs" // want

func WrapShard(s *server.Server) http.Handler { return nil } // want

func handleLoad(w http.ResponseWriter, r *http.Request) {} // want

func handleUnload(w http.ResponseWriter, r *http.Request) {} // want

type Options struct{ RetryBudget int } // want

func budget(o Options) int { return resilience.RetryBudgetLeft(nil) + o.RetryBudget } // want
