package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"

	"slimgraph/internal/centrality"
	"slimgraph/internal/graph"
	"slimgraph/internal/metrics"
	"slimgraph/internal/traverse"
	"slimgraph/internal/triangles"
)

// This file holds the query table — one row per analytics endpoint, the one
// list of servable kernels — and the HTTP handlers over it. The backend
// (Local in one process, the cluster coordinator across shards) runs the
// rows' own code.

// Shape is how a cluster plans a row; it follows from the kernel, never
// from a size or an option. Whole runs on one replica as part 0 of 1: the
// kernel's rounds depend on the graph (BFS levels, PageRank iterations), or
// it reads the whole graph at once (DOULION's global edge sample, compare).
// Scatter runs part i of `of` on each of `of` replicas in one round.
type Shape int

const (
	Whole Shape = iota
	Scatter
)

// String is the shape's route segment between coordinator and shard.
func (s Shape) String() string { return [...]string{"whole", "part"}[s] }

// Elem is what a row's Reply carries beside its scalars. A frame between
// shards holds one vector, and its element width alone cannot tell int64
// from float64; compare's Quality crosses as JSON.
type Elem int

const (
	Scalars Elem = iota
	Int32s
	Int64s
	Float64s
	JSON
)

// Reply is one Run's answer.
type Reply struct {
	Scalars  [3]int64
	Int32s   []int32
	Int64s   []int64
	Float64s []float64
	Quality  *metrics.Quality
}

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

// Kernel is one row of the query table. The HTTP handler, Local, the
// cluster coordinator and a cluster shard are each one function over the
// rows, so a single node and a cluster run the same parser, kernel and
// finishing code, and a new servable kernel is one row.
type Kernel struct {
	// Name is the route segment: GET /v1/graphs/{name}/<Name>, and POST
	// /internal/v1/graphs/{name}/<Shape>/<Name> to a shard. Rows sharing a
	// route are adjacent and told apart by the Mode their Parse reads.
	Name, Mode string
	Shape      Shape
	Elem       Elem
	// Parse reads the row's own parameters into q and validates them against
	// the graph, before any scheme runs.
	Parse func(v url.Values, info *GraphInfo, q *Query) error
	// Run computes part `part` of `of` on the resolved target, q.Workers
	// clamped.
	Run func(t *target, q Query, part, of int) (Reply, error)
	// Finish turns the replies, in part order, into the response; spec is
	// the canonical spec and n the target's vertex count.
	Finish func(q Query, spec string, n int, replies []Reply) any
}

// Kernels is the query table.
var Kernels = []*Kernel{
	{
		Name: "bfs", Shape: Whole, Elem: Int32s,
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
		Run: func(t *target, q Query, _, _ int) (Reply, error) {
			err := inRange(int(q.Root), t.g.N())
			if err != nil {
				return Reply{}, err
			}
			return Reply{Int32s: traverse.BFS(t.g, q.Root, q.Workers).Dist}, nil
		},
		Finish: func(q Query, spec string, _ int, r []Reply) any {
			res := traverse.BFSResult{Dist: r[0].Int32s}
			return &BFSResponse{Graph: q.Graph, Spec: spec, Root: q.Root, Reached: res.Reached(), Ecc: res.Ecc(), Dist: res.Dist}
		},
	},
	{
		Name: "pagerank", Shape: Whole, Elem: Float64s,
		Parse: func(v url.Values, _ *GraphInfo, q *Query) (err error) {
			if q.K, err = intParam(v, "k", 10); err == nil && q.K < 0 {
				err = Errf(http.StatusBadRequest, "parameter k must not be negative, got %d", q.K)
			}
			return err
		},
		Run: func(t *target, q Query, _, _ int) (Reply, error) {
			return Reply{Float64s: centrality.PageRank(t.g, centrality.PageRankOptions{Workers: q.Workers})}, nil
		},
		Finish: func(q Query, spec string, _ int, r []Reply) any {
			return &PageRankResponse{Graph: q.Graph, Spec: spec, K: q.K, Top: TopK(r[0].Float64s, q.K)}
		},
	},
	{
		// A part is the out-degree histogram of a degree-balanced vertex range.
		Name: "degrees", Shape: Scatter, Elem: Int64s,
		Parse: func(url.Values, *GraphInfo, *Query) error { return nil },
		Run: func(t *target, _ Query, part, of int) (Reply, error) {
			cut := graph.DegreeCuts(t.g, of)
			return Reply{Int64s: metrics.DegreeHistogram(t.g, cut(part), cut(part+1))}, nil
		},
		Finish: func(q Query, spec string, n int, parts []Reply) any {
			hist := parts[0].Int64s // the parts are this call's own: add in place
			for _, r := range parts[1:] {
				hist = metrics.AddHistogram(hist, r.Int64s)
			}
			dist := metrics.Distribution(hist, n)
			slope, r2 := metrics.PowerLawSlope(dist)
			return &DegreesResponse{Graph: q.Graph, Spec: spec, Dist: dist, Slope: slope, R2: r2}
		},
	},
	{
		// A part is the triangles whose rank-lowest vertex lies in its work slice.
		Name: "triangles", Mode: "exact", Shape: Scatter, Elem: Scalars,
		Parse: triangleArgs,
		Run: func(t *target, q Query, part, of int) (Reply, error) {
			return Reply{Scalars: [3]int64{t.engine(q.Workers).CountPart(part, of)}}, nil
		},
		Finish: func(q Query, spec string, _ int, parts []Reply) any {
			var total int64
			for _, r := range parts {
				total += r.Scalars[0]
			}
			return &TrianglesResponse{Graph: q.Graph, Spec: spec, Mode: q.Mode, Count: &total}
		},
	},
	{
		// The estimate samples edges by global edge ID, so any one replica
		// computes it; it crosses as its IEEE-754 bits.
		Name: "triangles", Mode: "approx", Shape: Whole, Elem: Scalars,
		Parse: triangleArgs,
		Run: func(t *target, q Query, _, _ int) (Reply, error) {
			return Reply{Scalars: [3]int64{int64(math.Float64bits(triangles.CountApprox(t.g, q.P, q.Seed, q.Workers)))}}, nil
		},
		Finish: func(q Query, spec string, _ int, r []Reply) any {
			est := math.Float64frombits(uint64(r[0].Scalars[0]))
			return &TrianglesResponse{Graph: q.Graph, Spec: spec, Mode: q.Mode, Estimate: &est}
		},
	},
	{
		// The §5 quality metrics of a variant against its original.
		Name: "compare", Shape: Whole, Elem: JSON,
		Parse: func(v url.Values, _ *GraphInfo, _ *Query) error {
			if v.Get("spec") == "" {
				return Errf(http.StatusBadRequest, "compare needs a spec parameter")
			}
			return nil
		},
		Run: func(t *target, q Query, _, _ int) (Reply, error) {
			// The original side runs on its resident form in place; every
			// Quality sub-metric is representation-independent.
			orig, err := acquireView(t.e)
			if err != nil {
				return Reply{}, err
			}
			defer orig.release()
			quality, err := metrics.CompareGraphs(orig.adj, t.g, q.Workers)
			if err != nil {
				return Reply{}, Errf(http.StatusUnprocessableEntity, "%v", err)
			}
			return Reply{Quality: quality}, nil
		},
		Finish: func(q Query, spec string, _ int, r []Reply) any {
			return &CompareResponse{Graph: q.Graph, Spec: spec, Seed: q.Seed, Quality: r[0].Quality}
		},
	},
}

// row returns the row answering route name in mode.
func row(name, mode string) *Kernel {
	return Kernels[slices.IndexFunc(Kernels, func(k *Kernel) bool { return k.Name == name && k.Mode == mode })]
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
		Respond(w, http.StatusOK, resp, err)
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

// analytics serves the public route of k.Name: k's Parse reads the row's
// arguments, and the mode it read picks among the rows sharing the route.
func (s *Server) analytics(k *Kernel) func(r *http.Request, info *GraphInfo, p QueryParams) (any, error) {
	return func(r *http.Request, info *GraphInfo, p QueryParams) (any, error) {
		q := Query{Graph: info.Name, QueryParams: p}
		if err := k.Parse(r.URL.Query(), info, &q); err != nil {
			return nil, err
		}
		q.Kernel = row(k.Name, q.Mode)
		return s.backend.Query(r.Context(), q)
	}
}
