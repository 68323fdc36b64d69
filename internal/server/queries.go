package server

import (
	"encoding/json"
	"net/http"
	"net/url"
	"slices"
	"strconv"

	"slimgraph/internal/centrality"
	"slimgraph/internal/metrics"
	"slimgraph/internal/traverse"
	"slimgraph/internal/triangles"
)

// This file holds the query table — one row per analytics endpoint, the one
// list of servable kernels — and the HTTP handlers over it. Local runs the
// rows' own code; the cluster coordinator relays a replica's answer to the
// same public route.

// Query is one analytics request as every layer hands it on: the row that
// answers it, the graph, the row's own arguments and the shared parameters.
type Query struct {
	Kernel *Kernel
	Graph  string
	Root   int32   // bfs
	K      int     // pagerank
	Mode   string  // triangles: exact or approx
	P      float64 // triangles: the DOULION sampling probability
	QueryParams
}

// Kernel is one row of the query table. The HTTP handler and Local are each
// one function over the rows, and a cluster replica answers the public
// route, so a single node and a cluster run the same parser and kernel, and
// a new servable kernel is one row.
type Kernel struct {
	// Name is the route segment: GET /v1/graphs/{name}/<Name>. Rows sharing
	// a route are adjacent and told apart by the Mode their Parse reads.
	Name, Mode string
	// Parse reads the row's own parameters into q and validates them against
	// the graph, before any scheme runs.
	Parse func(v url.Values, info *GraphInfo, q *Query) error
	// Run answers q on the resolved target, q.Workers clamped: the response.
	Run func(t *target, q Query) (any, error)
}

// Kernels is the query table.
var Kernels = []*Kernel{
	{
		Name: "bfs",
		Parse: func(v url.Values, info *GraphInfo, q *Query) error {
			root, err := intParam(v, "root", 0)
			if err == nil {
				// Checked before narrowing to a vertex ID, which would wrap a
				// root past 2^31 into range. No scheme adds vertices; a root
				// only a vertex-shrinking variant lacks is Run's to reject.
				err = inRange(root, info.N)
			}
			q.Root = int32(root)
			return err
		},
		Run: func(t *target, q Query) (any, error) {
			if err := inRange(int(q.Root), t.g.N()); err != nil {
				return nil, err
			}
			res := traverse.BFS(t.g, q.Root, q.Workers)
			return &BFSResponse{Graph: q.Graph, Spec: t.spec, Root: q.Root, Reached: res.Reached(), Ecc: res.Ecc(), Dist: res.Dist}, nil
		},
	},
	{
		Name: "pagerank",
		Parse: func(v url.Values, _ *GraphInfo, q *Query) (err error) {
			if q.K, err = intParam(v, "k", 10); err == nil && q.K < 0 {
				err = Errf(http.StatusBadRequest, "parameter k must not be negative, got %d", q.K)
			}
			return err
		},
		Run: func(t *target, q Query) (any, error) {
			ranks := centrality.PageRank(t.g, centrality.PageRankOptions{Workers: q.Workers})
			return &PageRankResponse{Graph: q.Graph, Spec: t.spec, K: q.K, Top: TopK(ranks, q.K)}, nil
		},
	},
	{
		Name:  "degrees",
		Parse: func(url.Values, *GraphInfo, *Query) error { return nil },
		Run: func(t *target, q Query) (any, error) {
			dist := metrics.DegreeDistribution(t.g)
			slope, r2 := metrics.PowerLawSlope(dist)
			return &DegreesResponse{Graph: q.Graph, Spec: t.spec, Dist: dist, Slope: slope, R2: r2}, nil
		},
	},
	{
		Name: "triangles", Mode: "exact",
		Parse: triangleArgs,
		Run: func(t *target, q Query) (any, error) {
			count := t.engine(q.Workers).Count()
			return &TrianglesResponse{Graph: q.Graph, Spec: t.spec, Mode: q.Mode, Count: &count}, nil
		},
	},
	{
		Name: "triangles", Mode: "approx",
		Parse: triangleArgs,
		Run: func(t *target, q Query) (any, error) {
			est := triangles.CountApprox(t.g, q.P, q.Seed, q.Workers)
			return &TrianglesResponse{Graph: q.Graph, Spec: t.spec, Mode: q.Mode, Estimate: &est}, nil
		},
	},
	{
		// The §5 quality metrics of a variant against its original.
		Name: "compare",
		Parse: func(v url.Values, _ *GraphInfo, _ *Query) error {
			if v.Get("spec") == "" {
				return Errf(http.StatusBadRequest, "compare needs a spec parameter")
			}
			return nil
		},
		Run: func(t *target, q Query) (any, error) {
			// The original side runs on its resident form in place; every
			// Quality sub-metric is representation-independent.
			orig, err := acquireView(t.e)
			if err != nil {
				return nil, err
			}
			defer orig.release()
			quality, err := metrics.CompareGraphs(orig.adj, t.g, q.Workers)
			if err != nil {
				return nil, Errf(http.StatusUnprocessableEntity, "%v", err)
			}
			return &CompareResponse{Graph: q.Graph, Spec: t.spec, Seed: q.Seed, Quality: quality}, nil
		},
	},
}

// row returns the row answering route name in mode.
func row(name, mode string) *Kernel {
	return Kernels[slices.IndexFunc(Kernels, func(k *Kernel) bool { return k.Name == name && k.Mode == mode })]
}

// Routes is one row per route, the first of the rows sharing its Name.
func Routes() []*Kernel {
	return slices.CompactFunc(slices.Clone(Kernels), func(a, b *Kernel) bool { return a.Name == b.Name })
}

// ParseQuery reads the arguments of k's route into q with k's Parse, and
// sets q.Kernel to the row of that route answering the mode Parse read.
func (k *Kernel) ParseQuery(v url.Values, info *GraphInfo, q *Query) error {
	if err := k.Parse(v, info, q); err != nil {
		return err
	}
	q.Kernel = row(k.Name, q.Mode)
	return nil
}

func inRange(root, n int) error {
	if root < 0 || root >= n {
		return Errf(http.StatusBadRequest, "root %d outside [0, %d)", root, n)
	}
	return nil
}

// triangleArgs is the triangles route's Parse. p only steers mode=approx,
// but a value that is not a probability is refused in either mode rather
// than silently ignored in one.
func triangleArgs(v url.Values, info *GraphInfo, q *Query) error {
	q.Mode, q.P = v.Get("mode"), 0.1
	if q.Mode == "" {
		q.Mode = "exact"
	}
	if q.Mode != "exact" && q.Mode != "approx" {
		return Errf(http.StatusBadRequest, "unknown mode %q (exact or approx)", q.Mode)
	}
	if s := v.Get("p"); s != "" {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || !(f > 0 && f <= 1) { // written so that NaN fails
			return Errf(http.StatusBadRequest, "parameter p must be in (0, 1], got %q", s)
		}
		q.P = f
	}
	if info.Directed {
		return Errf(http.StatusUnprocessableEntity, "triangle counting is defined for undirected graphs")
	}
	return nil
}

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
	p.Workers = s.opts.clampWorkers(workers)
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
		respond(w, http.StatusOK, resp, err)
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
	p := QueryParams{Seed: req.Seed, Workers: s.opts.clampWorkers(req.Workers)}
	return s.backend.Compress(r.Context(), info.Name, req.Spec, p)
}

// analytics serves the public route of k.Name through ParseQuery.
func (s *Server) analytics(k *Kernel) func(r *http.Request, info *GraphInfo, p QueryParams) (any, error) {
	return func(r *http.Request, info *GraphInfo, p QueryParams) (any, error) {
		q := Query{Graph: info.Name, QueryParams: p}
		if err := k.ParseQuery(r.URL.Query(), info, &q); err != nil {
			return nil, err
		}
		return s.backend.Query(r.Context(), q)
	}
}
