package server

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// This file holds the query-endpoint HTTP handlers: parameter parsing and
// the validation that must not cost a scheme execution, with the actual
// work delegated to the QueryBackend (Local in one process, the cluster
// coordinator across shards).

// params parses the query parameters every analytics endpoint shares.
func (s *Server) params(r *http.Request) (QueryParams, error) {
	q := r.URL.Query()
	p := QueryParams{Spec: q.Get("spec")}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return p, Errf(http.StatusBadRequest, "%v", err)
		}
		p.Seed = seed
	}
	workers, err := intParam(q, "workers", 0)
	if err != nil {
		return p, err
	}
	p.Workers = s.clampWorkers(workers)
	return p, nil
}

// query is the one shape every query endpoint has: take an admission slot,
// resolve {name} (so an unknown graph is a 404 before anything is parsed),
// parse the shared parameters, and hand both to call, which validates the
// endpoint's own cheap parameters before it runs the backend — so a bad
// request never costs (or caches) a scheme execution. Errors carry their
// status as an *Error.
func (s *Server) query(call func(r *http.Request, info *GraphInfo, p QueryParams) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, ok := s.admit(w, r)
		if !ok {
			return
		}
		defer release()
		info, err := s.cat.Info(r.Context(), r.PathValue("name"))
		var p QueryParams
		if err == nil && r.Method == http.MethodGet { // compress carries its parameters in the body
			p, err = s.params(r)
		}
		var resp any
		if err == nil {
			resp, err = call(r, info, p)
		}
		if err != nil {
			WriteErr(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) compress(r *http.Request, info *GraphInfo, _ QueryParams) (any, error) {
	var req CompressRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, Errf(http.StatusBadRequest, "bad JSON body: %v", err)
	}
	if req.Spec == "" {
		return nil, Errf(http.StatusBadRequest, "missing \"spec\"")
	}
	p := QueryParams{Seed: req.Seed, Workers: s.clampWorkers(req.Workers)}
	return s.backend.Compress(r.Context(), info.Name, req.Spec, p)
}

func (s *Server) bfs(r *http.Request, info *GraphInfo, p QueryParams) (any, error) {
	root, err := intParam(r.URL.Query(), "root", 0)
	if err != nil {
		return nil, err
	}
	// Checked before narrowing to a vertex ID, which would wrap a root past
	// 2^31 into range. No scheme adds vertices, so a root the original lacks
	// is out of range for every variant; one only a vertex-shrinking variant
	// lacks is the backend's to reject.
	if root < 0 || root >= info.N {
		return nil, Errf(http.StatusBadRequest, "root %d outside [0, %d)", root, info.N)
	}
	return s.backend.BFS(r.Context(), info.Name, int32(root), p)
}

func (s *Server) pageRank(r *http.Request, info *GraphInfo, p QueryParams) (any, error) {
	k, err := intParam(r.URL.Query(), "k", 10)
	if err != nil {
		return nil, err
	}
	if k < 0 {
		return nil, Errf(http.StatusBadRequest, "parameter k must not be negative, got %d", k)
	}
	return s.backend.PageRank(r.Context(), info.Name, k, p)
}

func (s *Server) triangles(r *http.Request, info *GraphInfo, p QueryParams) (any, error) {
	q := r.URL.Query()
	mode := q.Get("mode")
	if mode == "" {
		mode = "exact"
	}
	if mode != "exact" && mode != "approx" {
		return nil, Errf(http.StatusBadRequest, "unknown mode %q (exact or approx)", mode)
	}
	// p only steers mode=approx, but a value that is not a probability is
	// refused in either mode rather than silently ignored in one.
	prob := 0.1
	if v := q.Get("p"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f > 0 && f <= 1) { // written so that NaN fails
			return nil, Errf(http.StatusBadRequest, "parameter p must be in (0, 1], got %q", v)
		}
		prob = f
	}
	if info.Directed {
		return nil, Errf(http.StatusUnprocessableEntity, "triangle counting is defined for undirected graphs")
	}
	return s.backend.Triangles(r.Context(), info.Name, mode, prob, p)
}

func (s *Server) degrees(r *http.Request, info *GraphInfo, p QueryParams) (any, error) {
	return s.backend.Degrees(r.Context(), info.Name, p)
}

// compare serves the §5 quality metrics of a cached (or freshly computed)
// variant against its original.
func (s *Server) compare(r *http.Request, info *GraphInfo, p QueryParams) (any, error) {
	if p.Spec == "" {
		return nil, Errf(http.StatusBadRequest, "compare needs a spec parameter")
	}
	return s.backend.Compare(r.Context(), info.Name, p)
}
