// Package server implements slimgraphd: a long-lived HTTP/JSON service that
// keeps named graphs resident, compresses them on demand through the scheme
// registry, and answers approximate-analytics queries over the original or
// any compressed variant — the paper's "approximate graph processing,
// storage, and analytics" pipeline as one concurrent process.
//
// Three pieces compose under concurrency:
//
//   - the graph catalog: named graphs uploaded (edge list or either binary
//     snapshot version, sniffed by graphio.ReadAuto) or generated on demand,
//     kept raw or succinctly packed per a memory policy;
//   - the compressed-variant cache: an LRU keyed by (graph, canonical
//     scheme spec, seed) with single-flight deduplication,
//     so N concurrent identical compress requests run the scheme exactly
//     once and failures are never cached;
//   - query endpoints (BFS distances, PageRank top-k, exact or
//     DOULION-approximate triangle counts, degree distributions, §5 quality
//     comparison) that resolve their target graph through the cache, with
//     bounded request concurrency and per-request worker budgets riding on
//     internal/parallel.
//
// Requests default to a one-worker budget, which makes every query response
// byte-identical for a fixed seed; a higher budget is an explicit opt-in
// (responses stay correct but float reductions may round differently).
//
// The HTTP layer is decoupled from execution by the Catalog and
// QueryBackend interfaces (backend.go): New wires the in-process Local
// engine, NewWithBackend accepts any implementation — internal/cluster's
// coordinator serves the same API over shard replicas.
package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slimgraph/internal/graph"
	"slimgraph/internal/graphio"
	"slimgraph/internal/obs"
	"slimgraph/internal/resilience"
	"slimgraph/internal/schemes"
)

// Options configures a Server.
type Options struct {
	// CacheCapacity bounds the number of resident compressed variants
	// (default 64).
	CacheCapacity int
	// MaxConcurrent bounds how many heavy requests (loads, compressions,
	// queries) execute at once; further requests queue. Default
	// 2×GOMAXPROCS.
	MaxConcurrent int
	// MaxWorkers caps the per-request worker budget (default GOMAXPROCS).
	MaxWorkers int
	// Registry receives every metric the server records — request
	// counters and latency histograms, variant-cache events, catalog
	// residency gauges — and is served on GET /metrics. Nil creates a
	// private registry, retrievable via Server.Registry.
	Registry *obs.Registry
	// Logger receives one structured record per HTTP request (request ID,
	// route pattern, status, latency). Nil disables request logging;
	// metrics are unaffected.
	Logger obs.Logger
	// MaxQueue bounds how many heavy requests may WAIT for a concurrency
	// slot (default 4×MaxConcurrent). Beyond it — or after QueueWait
	// expires — the request is refused with 429 + Retry-After instead of
	// piling up goroutines without bound.
	MaxQueue int
	// QueueWait bounds how long an admitted-to-the-queue request waits for
	// a slot before 429 (default 2s).
	QueueWait time.Duration
	// DataDir enables the disk tier: every created graph's servable
	// snapshot is written through to this directory (atomically: temp file,
	// fsync, rename), and on startup existing snapshots are re-attached
	// memory-mapped, so a restart serves its first packed query without
	// re-decoding anything. Empty keeps the catalog purely in-memory.
	DataDir string
	// MemBudget caps the catalog's heap bytes (raw CSRs, packed forms,
	// triangle arenas); past it, least-recently-used graphs spill to
	// DataDir and serve memory-mapped. 0 means unbounded. Requires DataDir.
	MemBudget int64
}

func (o Options) withDefaults() Options {
	if o.CacheCapacity <= 0 {
		o.CacheCapacity = 64
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4 * o.MaxConcurrent
	}
	if o.QueueWait <= 0 {
		o.QueueWait = 2 * time.Second
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	return o
}

// Server is the slimgraphd HTTP surface: request parsing, validation,
// concurrency bounding, and liveness/readiness, delegating execution to a
// Catalog and a QueryBackend.
type Server struct {
	opts    Options
	cat     Catalog
	backend QueryBackend
	local   *Local        // non-nil when backed by the in-process engine
	sem     chan struct{} // MaxConcurrent slots for heavy requests
	waiters atomic.Int64  // heavy requests currently queued for a slot
	shed    *obs.Counter  // requests refused with 429 by admission control
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the tracing middleware
	ready   *obs.Gauge   // 1 when /readyz would answer 200

	readyMu    sync.RWMutex
	notReady   string       // non-empty while explicitly not ready
	readyCheck func() error // optional dynamic readiness probe
}

// New returns a Server backed by an in-process Local engine. The catalog
// starts empty unless Options.DataDir holds snapshots from a previous run,
// which are re-attached memory-mapped. The options are resolved once up
// front so the engine and the HTTP surface share one metrics registry. New
// fails only when the data directory cannot be opened or scanned.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	local, err := NewLocal(opts)
	if err != nil {
		return nil, err
	}
	s := NewWithBackend(local, local, opts)
	s.local = local
	return s, nil
}

// NewWithBackend returns a Server serving the /v1 API through the given
// catalog and query backend — the seam internal/cluster's coordinator plugs
// into.
func NewWithBackend(cat Catalog, backend QueryBackend, opts Options) *Server {
	s := &Server{
		opts:    opts.withDefaults(),
		cat:     cat,
		backend: backend,
		mux:     http.NewServeMux(),
	}
	s.sem = make(chan struct{}, s.opts.MaxConcurrent)
	s.shed = s.opts.Registry.Counter("slimgraph_admission_rejected_total",
		"Heavy requests refused with 429 because the wait queue was full or QueueWait expired.")
	s.opts.Registry.GaugeFunc("slimgraph_admission_waiting",
		"Heavy requests currently queued for a concurrency slot.",
		func() float64 { return float64(s.waiters.Load()) })
	s.ready = s.opts.Registry.Gauge("slimgraph_ready",
		"1 when /readyz would answer 200, 0 otherwise; updated on every probe.")
	obs.RegisterRuntimeGauges(s.opts.Registry)
	s.routes()
	// The middleware resolves the endpoint label through the mux itself:
	// ServeMux sets r.Pattern only on the clone handed to the handler, which
	// an outer wrapper never sees, but Handler matches without serving.
	// DeadlineMiddleware sits inside the observability wrapper so a 504 for
	// an already-expired propagated deadline still gets a request ID, a
	// metric, and a log line.
	s.handler = obs.Middleware(resilience.DeadlineMiddleware(s.mux), obs.MiddlewareOptions{
		Registry: s.opts.Registry,
		Logger:   s.opts.Logger,
		PatternOf: func(r *http.Request) string {
			_, pattern := s.mux.Handler(r)
			return pattern
		},
	})
	return s
}

// Handler returns the HTTP handler serving the slimgraphd API, wrapped in
// the observability middleware (request IDs, per-endpoint metrics, request
// logging).
func (s *Server) Handler() http.Handler { return s.handler }

// Registry returns the metrics registry every server metric records into —
// the one GET /metrics serves.
func (s *Server) Registry() *obs.Registry { return s.opts.Registry }

// Local returns the in-process engine backing this server, or nil when the
// server was built over a remote backend.
func (s *Server) Local() *Local { return s.local }

// CacheStats returns a snapshot of the variant cache counters (zero when
// the server is not backed by a local engine).
func (s *Server) CacheStats() CacheStats {
	if s.local == nil {
		return CacheStats{}
	}
	return s.local.cache.snapshot()
}

// SetNotReady marks the server not ready with the given reason; /readyz
// answers 503 until SetReady. Liveness (/healthz) is unaffected.
func (s *Server) SetNotReady(reason string) {
	s.readyMu.Lock()
	defer s.readyMu.Unlock()
	s.notReady = cmp.Or(reason, "not ready")
}

// SetReady marks the server ready.
func (s *Server) SetReady() {
	s.readyMu.Lock()
	defer s.readyMu.Unlock()
	s.notReady = ""
}

// SetReadyCheck installs a dynamic readiness probe consulted by /readyz
// after the explicit SetReady/SetNotReady state — the coordinator uses it
// to report ready only when every shard is.
func (s *Server) SetReadyCheck(fn func() error) {
	s.readyMu.Lock()
	defer s.readyMu.Unlock()
	s.readyCheck = fn
}

// readyErr returns nil when the server should answer /readyz with 200.
func (s *Server) readyErr() error {
	s.readyMu.RLock()
	notReady, check := s.notReady, s.readyCheck
	s.readyMu.RUnlock()
	if notReady != "" {
		return fmt.Errorf("%s", notReady)
	}
	if check != nil {
		return check()
	}
	return nil
}

// AddGraph inserts g into the catalog programmatically — the preload path
// of cmd/slimgraphd and of in-process embedders. memory is MemoryRaw or
// MemoryPacked ("" means raw); source is free-form provenance.
func (s *Server) AddGraph(name, memory, source string, g *graph.Graph, workers int) error {
	_, err := s.cat.Create(context.Background(), name, memory, source, g, workers)
	return err
}

// AddGenerated generates a graph and inserts it, mirroring the JSON body of
// POST /v1/graphs.
func (s *Server) AddGenerated(name, kind string, scale, edgeFactor, n int, seed uint64, weighted bool, memory string, workers int) error {
	g, source, err := Generate(kind, scale, edgeFactor, n, seed, weighted)
	if err != nil {
		return err
	}
	return s.AddGraph(name, memory, source, g, workers)
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// The probe result also lands on the slimgraph_ready gauge, so a
		// flapping server is visible in metrics history, not only to the
		// prober that happened to catch the 503.
		if err := s.readyErr(); err != nil {
			s.ready.Set(0)
			writeErr(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		s.ready.Set(1)
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	s.mux.Handle("GET /metrics", s.opts.Registry.Handler())
	s.mux.HandleFunc("GET /v1/schemes", s.handleSchemes)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	s.mux.HandleFunc("POST /v1/graphs", s.handleCreateGraph)
	s.mux.HandleFunc("GET /v1/graphs/{name}", s.handleGetGraph)
	s.mux.HandleFunc("DELETE /v1/graphs/{name}", s.handleDeleteGraph)
	s.mux.HandleFunc("POST /v1/graphs/{name}/compress", s.query(s.compress))
	for _, k := range Routes() {
		s.mux.HandleFunc("GET /v1/graphs/{name}/"+k.Name, s.query(s.analytics(k)))
	}
}

// admit claims one of the MaxConcurrent heavy-request slots, waiting at
// most QueueWait in a queue bounded by MaxQueue. When the queue is full or
// the wait expires, it answers 429 with a Retry-After hint and reports
// ok=false — load sheds at the door instead of accumulating goroutines
// until the process dies of the overload it was supposed to absorb. The
// returned release must be deferred when ok.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	// Fast path: a free slot costs no queue accounting.
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
	}
	if n := s.waiters.Add(1); n > int64(s.opts.MaxQueue) {
		s.waiters.Add(-1)
		s.reject(w)
		return nil, false
	}
	defer s.waiters.Add(-1)
	t := time.NewTimer(s.opts.QueueWait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	case <-t.C:
		s.reject(w)
		return nil, false
	case <-r.Context().Done():
		// The client gave up (or a propagated deadline expired) while
		// queued; 429 is still the honest answer — no work was done.
		s.reject(w)
		return nil, false
	}
}

func (s *Server) reject(w http.ResponseWriter) {
	s.shed.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(int(s.opts.QueueWait/time.Second)+1))
	writeErr(w, http.StatusTooManyRequests, "server at capacity: %d executing, %d queued", s.opts.MaxConcurrent, s.opts.MaxQueue)
}

// --- JSON plumbing ---------------------------------------------------------

// writeJSON is the server's one JSON response writer. It encodes before
// it writes the status, so a value encoding/json refuses (a NaN or an
// infinity that slipped through validation) is a 500 with an error body,
// never a 200 with an empty one. The two bulk bodies, *BFSResponse and
// *DegreesResponse, append themselves (appendJSON, jsonbody.go) to
// json.Marshal's exact bytes without reflection; one holding a NaN or ±Inf
// declines, and json.Marshal then writes that 500 as for every other body.
// Every body ends with one newline, the only raw newline compact JSON
// holds, so a reader knows a body that lacks it is torn. A json.RawMessage
// is a body written by writeJSON already (a replica's reply the cluster
// coordinator relays) and goes out verbatim.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, relayed := v.(json.RawMessage)
	if !relayed {
		appended := false
		if a, ok := v.(interface{ appendJSON([]byte) ([]byte, bool) }); ok {
			body, appended = a.appendJSON(nil)
		}
		if !appended {
			var err error
			if body, err = json.Marshal(v); err != nil {
				code = http.StatusInternalServerError
				body, _ = json.Marshal(map[string]string{"error": "encoding response: " + err.Error()})
			}
		}
		body = append(body, '\n')
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// respond writes v with code, or err with its embedded status (StatusOf)
// when it is non-nil.
func respond(w http.ResponseWriter, code int, v any, err error) {
	if err != nil {
		writeErr(w, StatusOf(err), "%v", err)
		return
	}
	writeJSON(w, code, v)
}

// --- catalog endpoints -----------------------------------------------------

func infoOf(e *entry) *GraphInfo {
	return &GraphInfo{
		Name: e.name, N: e.n, M: e.m,
		Directed: e.directed, Weighted: e.weighted,
		Memory: e.memory, Source: e.source,
		Residency: e.residency(),
	}
}

// schemeInfo is one registry entry as GET /v1/schemes lists it; the
// parameter rows come from the registration's table.
type schemeInfo struct {
	Name   string        `json:"name"`
	About  string        `json:"about"`
	Params []schemeParam `json:"params"`
}

type schemeParam struct {
	Key     string `json:"key"`
	Kind    string `json:"kind"`
	Default string `json:"default"`
	Range   string `json:"range"`
}

func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	var out []schemeInfo
	for _, name := range schemes.Names() {
		reg, _ := schemes.Lookup(name)
		params := make([]schemeParam, len(reg.Params))
		for i, p := range reg.Params {
			params[i] = schemeParam{Key: p.Key, Kind: p.Kind.String(), Default: p.Default, Range: p.Range()}
		}
		out = append(out, schemeInfo{Name: reg.Name, About: reg.About, Params: params})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.backend.Stats(r.Context())
	respond(w, http.StatusOK, st, err)
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	out, err := s.cat.List(r.Context())
	respond(w, http.StatusOK, out, err)
}

func (s *Server) handleCreateGraph(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		s.createGenerated(w, r)
		return
	}
	s.createUploaded(w, r)
}

func (s *Server) createGenerated(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad JSON body: %v", err)
		return
	}
	if req.Gen == "" {
		writeErr(w, http.StatusBadRequest, "missing generator: set \"gen\" to rmat, er, ba, grid, communities, or smallworld")
		return
	}
	workers := s.opts.clampWorkers(req.Workers)
	g, source, err := Generate(req.Gen, req.Scale, req.EdgeFactor, req.NumVertices, req.Seed, req.Weighted)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	info, err := s.cat.Create(r.Context(), req.Name, req.Memory, source, g, workers)
	respond(w, http.StatusCreated, info, err)
}

// ReadBody reads r to EOF into a buffer sized once from the declared body
// length (a 128 KiB rank vector costs io.ReadAll a dozen regrow-and-copy
// rounds), capped so a lying header reserves at most 1 MiB ahead of bytes.
func ReadBody(r io.Reader, declared int64) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, max(0, min(declared, 1<<20))+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// readUpload parses the graph a request body carries (graphio.ReadAuto) from
// the buffered body, not the stream: graphio bounds every header-declared
// count by the size of its source, and only the bytes actually received are
// a size the client cannot inflate — a 16-byte snapshot header declaring
// 2^32-1 edges must be a 400, not a 64 GiB allocation.
func readUpload(r *http.Request, directed bool) (*graph.Graph, error) {
	body, err := ReadBody(r.Body, r.ContentLength)
	if err != nil {
		return nil, err
	}
	return graphio.ReadAuto(bytes.NewReader(body), directed)
}

func (s *Server) createUploaded(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("name")
	directed := false
	if v := q.Get("directed"); v != "" {
		var err error
		if directed, err = strconv.ParseBool(v); err != nil {
			writeErr(w, http.StatusBadRequest, "parameter directed: want a boolean, got %q", v)
			return
		}
	}
	g, err := readUpload(r, directed)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "parsing uploaded graph: %v", err)
		return
	}
	rawWorkers, err := intParam(q, "workers", 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	info, err := s.cat.Create(r.Context(), name, q.Get("memory"), "upload", g, s.opts.clampWorkers(rawWorkers))
	respond(w, http.StatusCreated, info, err)
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	info, err := s.cat.Info(r.Context(), r.PathValue("name"))
	respond(w, http.StatusOK, info, err)
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	resp, err := s.cat.Drop(r.Context(), r.PathValue("name"))
	respond(w, http.StatusOK, resp, err)
}

// --- request parameter helpers ---------------------------------------------

// clampWorkers resolves a requested worker budget: <= 0 means one worker,
// the result never exceeds MaxWorkers, and it sets speed, never the variant.
func (o Options) clampWorkers(workers int) int {
	if workers <= 0 {
		return 1
	}
	return min(workers, o.MaxWorkers)
}

// intParam parses an optional integer query parameter strictly: empty means
// def, anything non-numeric is an error — never a silent fallback that
// would answer a different question than the client asked.
func intParam(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, Errf(http.StatusBadRequest, "parameter %s: want an integer, got %q", name, v)
	}
	return n, nil
}
