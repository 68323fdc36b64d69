package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"slimgraph/internal/centrality"
	"slimgraph/internal/cluster"
	"slimgraph/internal/graph"
	"slimgraph/internal/graphio"
	"slimgraph/internal/metrics"
	"slimgraph/internal/obs"
	"slimgraph/internal/server"
	"slimgraph/internal/succinct"
	"slimgraph/internal/traverse"
	"slimgraph/internal/triangles"
)

// The layer ladder times the same two pinned graphs at every layer, one
// call at a time from one goroutine, so that rung differences subtract
// cleanly: kernel on *Graph, on heap *PackedGraph, on an OpenPacked mapping,
// then the same query through Local, the handler into a recorder, loopback
// HTTP, and a coordinator over one and over three shards.
//
// Each figure is the median of up to ladderMaxCalls calls; an item stops
// after ladderMinCalls once it has used ladderItemBudget, so the slow rungs
// (a coordinator PageRank takes a second) do not stretch a traced run past
// the time the driver allows.
const (
	ladderMaxCalls   = 15
	ladderMinCalls   = 3
	ladderItemBudget = 150 * time.Millisecond
)

type ladder struct {
	cfg  config
	tr   *tracer
	out  map[string]float64
	rung int
	dir  string
	hc   *http.Client
	// Results are kept reachable so no measured call can be elided.
	sinkG *graph.Graph
	sinkF float64
	sinkB []byte
}

// measure returns the median duration of fn in nanoseconds.
func (l *ladder) measure(name string, fn func()) float64 {
	l.rung++
	var ns []float64
	var used time.Duration
	for len(ns) < ladderMaxCalls && !(len(ns) >= ladderMinCalls && used >= ladderItemBudget) {
		id := l.tr.begin(name, -1, l.rung)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		l.tr.end(id)
		used += d
		ns = append(ns, float64(d.Nanoseconds()))
	}
	return median(ns)
}

func (l *ladder) ms(name string, fn func()) float64 {
	v := l.measure(name, fn) / 1e6
	l.out[name] = v
	return v
}

func (l *ladder) us(name string, fn func()) { l.out[name] = l.measure(name, fn) / 1e3 }

// per records fn's median time divided by units, in nanoseconds.
func (l *ladder) per(name string, units int, fn func()) {
	l.out[name] = l.measure(name, fn) / float64(units)
}

func runLadder(cfg config, tr *tracer, out map[string]float64) error {
	dir, err := os.MkdirTemp(cfg.outDir, "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l := &ladder{cfg: cfg, tr: tr, out: out, dir: dir, hc: &http.Client{Timeout: 2 * time.Minute}}
	defer l.hc.CloseIdleConnections()

	var g, gg *graph.Graph
	l.ms("gen.rmat14_ms", func() { g = cfg.rmat(0) })
	l.ms("gen.grid128_ms", func() { gg = cfg.grid() })
	l.graphLayer(g)
	uniform, err := l.schemesLayer(g, gg)
	if err != nil {
		return err
	}
	pg, pgg, mapped, err := l.succinctLayer(g, gg)
	if err != nil {
		return err
	}
	defer mapped.Close()
	if err := l.graphioLayer(g); err != nil {
		return err
	}
	l.kernelLayers(g, gg, pg, pgg, mapped.PackedGraph, uniform)
	if err := l.serverLayer(g, gg); err != nil {
		return err
	}
	for _, shards := range []int{1, 3} {
		if err := l.clusterLayer(shards, g, gg); err != nil {
			return err
		}
	}
	l.parallelLayer(g)
	return nil
}

func (l *ladder) graphLayer(g *graph.Graph) {
	edges := g.Edges()
	l.ms("graph.build_ms", func() { l.sinkG = graph.FromEdges(g.N(), false, edges) })
	keep := graph.NewEdgeSet(g.M())
	for e := 0; e < g.M(); e += 2 {
		keep.Add(graph.EdgeID(e))
	}
	l.ms("graph.filter_ms", func() { l.sinkG = g.FilterEdgeSet(keep, nil) })
}

// schemesLayer times each scheme at one worker on both graphs and measures
// the accuracy each leaves on rmat14. It returns uniform's rmat14 output,
// which the metrics layer compares against.
func (l *ladder) schemesLayer(g, gg *graph.Graph) (*graph.Graph, error) {
	orig := newOriginal(g)
	var uniform *graph.Graph
	for i, spec := range schemeSpecs {
		key := schemeKeys[i]
		for _, in := range []struct {
			name string
			g    *graph.Graph
		}{{"rmat14", g}, {"grid128", gg}} {
			var out *graph.Graph
			var err error
			l.ms("schemes."+key+"_"+in.name+"_ms", func() {
				if o, e := applySpec(spec, in.g, accuracySeed, 1); e != nil {
					err = e
				} else {
					out = o
				}
			})
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", spec, in.name, err)
			}
			if in.name != "rmat14" {
				continue
			}
			acc := accuracyOf(orig, out)
			l.out["schemes."+key+"_edge_reduction"] = acc.edgeReduction
			l.out["schemes."+key+"_kl_pagerank"] = acc.klPageRank
			l.out["schemes."+key+"_triangle_rel_err"] = acc.triangleRelErr
			l.out["schemes."+key+"_bfs_retention"] = acc.bfsRetention
			if key == "uniform" {
				uniform = out
			}
		}
	}
	return uniform, nil
}

func (l *ladder) succinctLayer(g, gg *graph.Graph) (pg, pgg *succinct.PackedGraph, mapped *succinct.Mapped, err error) {
	l.ms("succinct.pack_ms", func() { pg = succinct.Pack(g, 1) })
	pgg = succinct.Pack(gg, 1)
	l.ms("succinct.unpack_ms", func() { l.sinkG = pg.Unpack(1) })
	l.out["succinct.bits_per_edge"] = pg.BitsPerEdge()
	l.out["succinct.payload_bits_per_edge"] = float64(pg.Stats().PayloadBytes*8) / float64(g.M())

	path := filepath.Join(l.dir, "rmat14.sgp")
	l.ms("succinct.write_servable_ms", func() {
		if err != nil {
			return
		}
		var f *os.File
		if f, err = os.Create(path); err != nil {
			return
		}
		if _, err = succinct.WriteServable(f, pg); err != nil {
			f.Close()
			return
		}
		err = f.Close()
	})
	if err != nil {
		return nil, nil, nil, err
	}
	l.us("succinct.open_us", func() {
		if err != nil {
			return
		}
		var m *succinct.Mapped
		if m, err = succinct.OpenPacked(path); err == nil {
			err = m.Close()
		}
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if mapped, err = succinct.OpenPacked(path); err != nil {
		return nil, nil, nil, err
	}

	n, arcs := g.N(), g.NumArcs()
	var sum int64
	visit := func(w graph.NodeID) { sum += int64(w) }
	l.per("succinct.scan_raw_ns_per_arc", arcs, func() {
		for v := 0; v < n; v++ {
			g.ForNeighbors(graph.NodeID(v), visit)
		}
	})
	l.per("succinct.scan_packed_ns_per_arc", arcs, func() {
		for v := 0; v < n; v++ {
			pg.ForNeighbors(graph.NodeID(v), visit)
		}
	})
	l.per("succinct.degree_packed_ns_per_vertex", n, func() {
		for v := 0; v < n; v++ {
			sum += int64(pg.Degree(graph.NodeID(v)))
		}
	})
	var stream []byte
	l.per("succinct.encode_ns_per_gap", arcs, func() {
		stream = stream[:0]
		for v := 0; v < n; v++ {
			stream = succinct.AppendList(stream, graph.NodeID(v), g.Neighbors(graph.NodeID(v)))
		}
	})
	var list []graph.NodeID
	l.per("succinct.decode_ns_per_gap", arcs, func() {
		pos := 0
		for v := 0; v < n; v++ {
			list, pos = succinct.DecodeList(list[:0], stream, pos, graph.NodeID(v))
		}
	})
	l.sinkF += float64(sum) + float64(len(list))
	return pg, pgg, mapped, nil
}

func (l *ladder) graphioLayer(g *graph.Graph) error {
	var err error
	var v1, v2 bytes.Buffer
	l.ms("graphio.write_binary_ms", func() {
		v1.Reset()
		if _, e := graphio.WriteBinary(&v1, g); e != nil {
			err = e
		}
	})
	l.ms("graphio.read_binary_ms", func() {
		if h, e := graphio.ReadBinary(bytes.NewReader(v1.Bytes())); e != nil {
			err = e
		} else {
			l.sinkG = h
		}
	})
	l.ms("graphio.write_packed_ms", func() {
		v2.Reset()
		if _, e := graphio.WritePacked(&v2, g); e != nil {
			err = e
		}
	})
	l.ms("graphio.read_packed_ms", func() {
		if h, e := graphio.ReadPacked(bytes.NewReader(v2.Bytes())); e != nil {
			err = e
		} else {
			l.sinkG = h
		}
	})
	return err
}

// kernelLayers times each kernel on the raw CSR, the heap packed form and
// the mapping.
func (l *ladder) kernelLayers(g, gg *graph.Graph, pg, pgg, mapped *succinct.PackedGraph, uniform *graph.Graph) {
	root, gridRoot := l.cfg.roots(1, g)[0], l.cfg.roots(1, gg)[0]
	l.ms("traverse.bfs_raw_ms", func() { l.sinkF += float64(traverse.BFS(g, root, 1).Ecc()) })
	l.ms("traverse.bfs_packed_ms", func() { l.sinkF += float64(traverse.BFSOn(pg, root, 1).Ecc()) })
	l.ms("traverse.bfs_mapped_ms", func() { l.sinkF += float64(traverse.BFSOn(mapped, root, 1).Ecc()) })
	l.ms("traverse.bfs_grid_raw_ms", func() { l.sinkF += float64(traverse.BFS(gg, gridRoot, 1).Ecc()) })
	l.ms("traverse.bfs_grid_packed_ms", func() { l.sinkF += float64(traverse.BFSOn(pgg, gridRoot, 1).Ecc()) })

	one := centrality.PageRankOptions{Workers: 1}
	var ranks []float64
	l.ms("centrality.pagerank_raw_ms", func() { ranks = centrality.PageRank(g, one) })
	l.ms("centrality.pagerank_packed_ms", func() { l.sinkF += centrality.PageRankOn(pg, one)[0] })
	l.ms("centrality.pagerank_mapped_ms", func() { l.sinkF += centrality.PageRankOn(mapped, one)[0] })
	l.out["centrality.pagerank_iters"] = float64(pageRankIters(g, ranks))

	var enRaw, enPacked *triangles.Engine
	l.ms("triangles.engine_build_raw_ms", func() { enRaw = triangles.NewEngine(g, 1) })
	l.ms("triangles.engine_build_packed_ms", func() { enPacked = triangles.NewEngineOn(pg, 1) })
	l.ms("triangles.count_raw_ms", func() { l.sinkF += float64(enRaw.Count()) })
	l.ms("triangles.count_packed_ms", func() { l.sinkF += float64(enPacked.Count()) })
	l.ms("triangles.approx_raw_ms", func() { l.sinkF += triangles.CountApprox(g, 0.1, l.cfg.seed, 1) })
	l.ms("triangles.approx_packed_ms", func() { l.sinkF += triangles.CountApproxOn(pg, 0.1, l.cfg.seed, 1) })

	var dist []float64
	l.us("metrics.degrees_raw_us", func() { dist = metrics.DegreeDistribution(g) })
	l.us("metrics.degrees_packed_us", func() { l.sinkF += float64(len(metrics.DegreeDistributionOn(pg))) })
	l.ms("metrics.compare_raw_ms", func() {
		if q, err := metrics.CompareGraphs(g, uniform, 1); err == nil {
			l.sinkF += q.KLPageRank
		}
	})
	l.ms("metrics.compare_packed_ms", func() {
		if q, err := metrics.CompareGraphsOn(pg, uniform, 1); err == nil {
			l.sinkF += q.KLPageRank
		}
	})
	l.out["metrics.degree_distance"] = metrics.DistributionDistance(dist, metrics.DegreeDistribution(uniform))
}

// pageRankIters finds how many power iterations the default options take to
// converge on g: the smallest MaxIter whose result equals the converged
// vector (the iteration stops itself at that count, so every larger cap
// returns the same bits).
func pageRankIters(g *graph.Graph, converged []float64) int {
	same := func(iters int) bool {
		r := centrality.PageRank(g, centrality.PageRankOptions{Workers: 1, MaxIter: iters})
		for i := range r {
			if r[i] != converged[i] {
				return false
			}
		}
		return true
	}
	lo, hi := 1, 100
	for lo < hi {
		mid := (lo + hi) / 2
		if same(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// ladderQueries returns the four query kinds as paths on rmat14.
func ladderQueries(root int32) map[string]string {
	return map[string]string{
		"bfs":       pathBFS("rmat14", root),
		"degrees":   pathDegrees("rmat14"),
		"pagerank":  pathPageRank("rmat14"),
		"triangles": pathTriangles("rmat14"),
	}
}

// get fetches url and returns the body; any failure is recorded in *errp.
func (l *ladder) get(url string, errp *error) {
	resp, err := l.hc.Get(url)
	if err != nil {
		*errp = err
		return
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %.200s", url, resp.StatusCode, buf.Bytes())
	}
	if err != nil {
		*errp = err
		return
	}
	l.sinkB = buf.Bytes()
}

func (l *ladder) post(url string, image []byte, errp *error) {
	resp, err := l.hc.Post(url, "application/octet-stream", bytes.NewReader(image))
	if err != nil {
		*errp = err
		return
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body) // the status line below says whether it worked
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		*errp = fmt.Errorf("POST %s: status %d: %.200s", url, resp.StatusCode, buf.Bytes())
	}
}

// serverLayer runs the four queries through Local, the handler and loopback
// HTTP on a node that serves rmat14 memory-mapped, the residency the rungs
// below it were timed on.
func (l *ladder) serverLayer(g, gg *graph.Graph) error {
	dir := filepath.Join(l.dir, "node")
	first, err := server.New(server.Options{DataDir: dir})
	if err != nil {
		return err
	}
	for _, in := range []namedGraph{{"rmat14", server.MemoryPacked, g}, {"grid128", server.MemoryPacked, gg}} {
		if err := first.AddGraph(in.name, in.memory, "ladder", in.g, 1); err != nil {
			return err
		}
	}
	var srv *server.Server
	l.out["server.attach_us"] = l.measure("server.attach_us", func() {
		if s, e := server.New(server.Options{DataDir: dir}); e != nil {
			err = e
		} else {
			srv = s
		}
	}) / 1e3 / 2
	if err != nil {
		return err
	}
	url, stop, err := serve(srv.Handler())
	if err != nil {
		return err
	}
	defer stop()

	root := l.cfg.roots(1, g)[0]
	ctx := context.Background()
	p := server.QueryParams{Workers: 1}
	local := srv.Local()
	keep := func(e error) {
		if e != nil {
			err = e
		}
	}
	l.ms("server.local_bfs_ms", func() { _, e := local.BFS(ctx, "rmat14", root, p); keep(e) })
	l.ms("server.local_degrees_ms", func() { _, e := local.Degrees(ctx, "rmat14", p); keep(e) })
	l.ms("server.local_pagerank_ms", func() { _, e := local.PageRank(ctx, "rmat14", 10, p); keep(e) })
	l.ms("server.local_triangles_ms", func() { _, e := local.Triangles(ctx, "rmat14", "exact", 0, p); keep(e) })
	for _, q := range queryKinds {
		path := ladderQueries(root)[q]
		l.ms("server.handler_"+q+"_ms", func() {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				err = fmt.Errorf("handler %s: status %d", path, rec.Code)
			}
			l.sinkB = rec.Body.Bytes()
		})
		if q == "bfs" {
			l.out["server.bfs_response_bytes"] = float64(len(l.sinkB))
		}
		l.ms("server.http_"+q+"_ms", func() { l.get(url+path, &err) })
	}
	if err != nil {
		return err
	}

	noop := obs.Middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}),
		obs.MiddlewareOptions{Registry: obs.NewRegistry()})
	req := httptest.NewRequest("GET", "/v1/graphs/rmat14/degrees", nil)
	l.us("obs.middleware_us", func() {
		for i := 0; i < 100; i++ {
			noop.ServeHTTP(httptest.NewRecorder(), req)
		}
	})
	l.out["obs.middleware_us"] /= 100
	return nil
}

// clusterLayer runs the four queries through a coordinator over shards
// shards. The graphs are created packed, so the rung above loopback HTTP
// differs from it by the hop, the wire format and the fan-out, not by the
// representation the kernels walk.
func (l *ladder) clusterLayer(shards int, g, gg *graph.Graph) error {
	lc, err := cluster.StartLocal(shards, server.Options{}, cluster.Options{})
	if err != nil {
		return err
	}
	defer lc.Close()
	url, stop, err := serve(lc.Front.Handler())
	if err != nil {
		return err
	}
	defer stop()
	image, err := binaryImage(g)
	if err != nil {
		return err
	}
	gridImage, err := binaryImage(gg)
	if err != nil {
		return err
	}
	l.post(url+"/v1/graphs?name=rmat14&memory=packed", image, &err)
	l.post(url+"/v1/graphs?name=grid128&memory=packed", gridImage, &err)
	if err != nil {
		return err
	}
	root := l.cfg.roots(1, g)[0]
	prefix := fmt.Sprintf("cluster.coord%d_", shards)
	for _, q := range queryKinds {
		path := ladderQueries(root)[q]
		l.ms(prefix+q+"_ms", func() { l.get(url+path, &err) })
	}
	if shards == 3 {
		l.ms("cluster.coord3_bfs_grid_ms", func() { l.get(url+pathBFS("grid128", l.cfg.roots(1, gg)[0]), &err) })
		i := 0
		l.ms("cluster.create_replicate_ms", func() {
			l.post(fmt.Sprintf("%s/v1/graphs?name=twin-%d&memory=packed", url, i), image, &err)
			i++
		})
	}
	return err
}

// parallelLayer reports one-worker time over all-worker time for three
// parallel paths. On one core there is nothing to measure and the ratios
// are reported as 1.
func (l *ladder) parallelLayer(g *graph.Graph) {
	w := l.cfg.procs
	if w == 1 {
		for _, k := range []string{"bfs", "tr-eo", "pack"} {
			l.out["parallel.speedup_"+k] = 1
		}
		return
	}
	root := l.cfg.roots(1, g)[0]
	ratio := func(name string, fn func(workers int)) {
		one := l.measure(name+"/1", func() { fn(1) })
		all := l.measure(fmt.Sprintf("%s/%d", name, w), func() { fn(w) })
		l.out[name] = one / all
	}
	ratio("parallel.speedup_bfs", func(workers int) { l.sinkF += float64(traverse.BFS(g, root, workers).Ecc()) })
	ratio("parallel.speedup_tr-eo", func(workers int) {
		if out, err := applySpec("tr-eo:p=0.8", g, accuracySeed, workers); err == nil {
			l.sinkG = out
		}
	})
	ratio("parallel.speedup_pack", func(workers int) { l.sinkF += float64(succinct.Pack(g, workers).M()) })
}
