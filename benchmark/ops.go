package main

import (
	"fmt"
	"net/url"

	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
)

// How an operation's answer is checked.
type opKind uint8

const (
	// kindHash: the body's SHA-256 must equal the reference engine's.
	kindHash opKind = iota
	// kindCompress, kindDynamic: a fresh-seed compression, or a BFS on one.
	// Every answer is checked for internal consistency; every
	// dynamicVerifyEvery-th compressed seed is also recomputed by the
	// reference engine after the timed pass, because recomputing all of them
	// would double the work of the classes being measured.
	kindCompress
	kindDynamic
	// kindCreate, kindDelete: status and the reported identity must match.
	kindCreate
	kindDelete
)

const dynamicVerifyEvery = 8

const (
	variantSpec     = "uniform:p=0.5"
	variantSeed     = accuracySeed // the variant the read-only workloads serve, and /compare measures
	churnGraphs     = 6
	churnWarmSeeds  = 32 // compressions done in set-up, so "the last 32 seeds" exist from the first operation
	churnLiveTmp    = 6  // uploads done in set-up; keeps every delete behind its create in the sequence
	churnTwins      = 4  // distinct upload images
	churnTwinOffset = churnGraphs
)

// op is one request of the pre-generated sequence.
type op struct {
	class   string
	kind    opKind
	method  string
	path    string
	body    []byte // shared and read-only
	ctype   string
	want    [32]byte // kindHash
	graph   string   // compress, dynamic: the graph; create, delete: the upload's name
	seed    uint64   // compress, dynamic: the variant's seed
	ordinal int      // compress: its position among all compressions; dynamic: the one it reads
	n, m    int      // create: the uploaded graph's size; compress: the input graph's
}

// sampled reports whether the reference engine recomputes this answer.
func (o op) sampled() bool {
	return (o.kind == kindCompress || o.kind == kindDynamic) && o.ordinal%dynamicVerifyEvery == 0
}

// classCount is how many operations of a class one block holds.
type classCount struct {
	class string
	count int
}

// Blocks are the unit the timed pass runs in: each holds the workload's
// exact class mix, shuffled, so any whole number of blocks measures the
// same traffic. The shares are the issue's, over 100 (cluster3: over 50,
// because its operations are ten times slower).
var blockMix = map[string][]classCount{
	wMapped: {{"degrees", 45}, {"bfs", 34}, {"bfs-variant", 5}, {"bfs-grid", 3},
		{"triangles-approx", 7}, {"triangles", 4}, {"pagerank", 2}},
	wChurn: {{"bfs", 50}, {"bfs-variant", 25}, {"compress", 15}, {"create", 5}, {"delete", 5}},
	wCluster: {{"degrees", 25}, {"bfs", 17}, {"bfs-grid", 1},
		{"triangles-approx", 4}, {"triangles", 2}, {"pagerank", 1}},
}

func countOf(workload, class string) int {
	for _, c := range blockMix[workload] {
		if c.class == class {
			return c.count
		}
	}
	return 0
}

// namedGraph is a catalog entry the workload creates in set-up.
type namedGraph struct {
	name   string
	memory string
	g      *graph.Graph
}

// mixer turns (seed, block index) into the block's operations. It is a pure
// function of the config once the expected hashes are filled in, so the
// same seed always yields the same sequence.
type mixer struct {
	cfg      config
	workload string
	graphs   []namedGraph        // serve-churn: g0..g5; otherwise rmat14, grid128
	roots    [][]int32           // bfs roots per graph, in graphs order
	expect   map[string][32]byte // path -> SHA-256 of the reference body
	twins    [][]byte            // serve-churn: upload images
	twinDims [][2]int            // their (n, m)
}

const (
	bfsRoots      = 64
	variantRoots  = 16
	gridRoots     = 8
	approxSeeds   = 8
	churnRoots    = 16
	churnVarRoots = 4
)

// catalogGraphs generates the graphs a served workload holds: six RMAT
// siblings kept raw for serve-churn, otherwise the two pinned graphs, packed
// on serve-mapped and raw on cluster3.
func catalogGraphs(cfg config, workload string) []namedGraph {
	if workload == wChurn {
		out := make([]namedGraph, churnGraphs)
		for i := range out {
			out[i] = namedGraph{fmt.Sprintf("g%d", i), "raw", cfg.rmat(i)}
		}
		return out
	}
	memory := "packed"
	if workload == wCluster {
		memory = "raw"
	}
	return []namedGraph{{"rmat14", memory, cfg.rmat(0)}, {"grid128", memory, cfg.grid()}}
}

func newMixer(cfg config, workload string) *mixer {
	m := &mixer{cfg: cfg, workload: workload, graphs: catalogGraphs(cfg, workload), expect: map[string][32]byte{}}
	for _, g := range m.graphs {
		m.roots = append(m.roots, cfg.roots(bfsRoots, g.g))
	}
	return m
}

// makeTwins encodes the upload images serve-churn's create class posts.
func (m *mixer) makeTwins() error {
	for i := 0; i < churnTwins; i++ {
		g := m.cfg.rmat(churnTwinOffset + i)
		image, err := binaryImage(g)
		if err != nil {
			return err
		}
		m.twins = append(m.twins, image)
		m.twinDims = append(m.twinDims, [2]int{g.N(), g.M()})
	}
	return nil
}

// --- request paths ----------------------------------------------------------

func pathBFS(name string, root int32) string {
	return fmt.Sprintf("/v1/graphs/%s/bfs?root=%d&workers=1", name, root)
}

func pathBFSVariant(name string, root int32, seed uint64) string {
	return fmt.Sprintf("/v1/graphs/%s/bfs?root=%d&spec=%s&seed=%d&workers=1", name, root, url.QueryEscape(variantSpec), seed)
}

func pathDegrees(name string) string { return "/v1/graphs/" + name + "/degrees?workers=1" }

func pathPageRank(name string) string { return "/v1/graphs/" + name + "/pagerank?k=10&workers=1" }

func pathTriangles(name string) string { return "/v1/graphs/" + name + "/triangles?workers=1" }

func pathTrianglesApprox(name string, seed uint64) string {
	return fmt.Sprintf("/v1/graphs/%s/triangles?mode=approx&p=0.1&seed=%d&workers=1", name, seed)
}

func pathCompare(name string, seed uint64) string {
	return fmt.Sprintf("/v1/graphs/%s/compare?spec=%s&seed=%d&workers=1", name, url.QueryEscape(variantSpec), seed)
}

func compressBody(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"spec":%q,"seed":%d,"workers":1}`, variantSpec, seed))
}

// staticPaths lists every request whose answer never changes during a run;
// the reference engine answers each once and the hash goes into m.expect.
func (m *mixer) staticPaths() []string {
	var out []string
	if m.workload == wChurn {
		for i, g := range m.graphs {
			for _, r := range m.roots[i][:churnRoots] {
				out = append(out, pathBFS(g.name, r))
			}
		}
		return out
	}
	rmat, grid := m.graphs[0].name, m.graphs[1].name
	for _, r := range m.roots[0] {
		out = append(out, pathBFS(rmat, r))
	}
	for _, r := range m.roots[1][:gridRoots] {
		out = append(out, pathBFS(grid, r))
	}
	for s := 0; s < approxSeeds; s++ {
		out = append(out, pathTrianglesApprox(rmat, m.cfg.seed+uint64(s)))
	}
	out = append(out, pathDegrees(rmat), pathTriangles(rmat), pathPageRank(rmat))
	if countOf(m.workload, "bfs-variant") > 0 {
		for _, r := range m.roots[0][:variantRoots] {
			out = append(out, pathBFSVariant(rmat, r, variantSeed))
		}
	}
	return out
}

// --- serve-churn's dynamic identities ---------------------------------------

// zipfGraph draws a serve-churn graph index with Zipf(1) popularity.
func zipfGraph(u float64) int {
	var total float64
	for k := 1; k <= churnGraphs; k++ {
		total += 1 / float64(k)
	}
	acc := 0.0
	for k := 1; k <= churnGraphs; k++ {
		acc += 1 / float64(k) / total
		if u < acc {
			return k - 1
		}
	}
	return churnGraphs - 1
}

// compression returns the graph and seed of the ordinal-th compression of
// the run (set-up performs ordinals 0..churnWarmSeeds-1).
func (m *mixer) compression(ordinal int) (graphIdx int, seed uint64) {
	h := rng.Hash64(m.cfg.seed^0x636f6d7072, uint64(ordinal))
	return zipfGraph(float64(h>>11) / (1 << 53)), m.cfg.seed*1_000_003 + uint64(ordinal)
}

func (m *mixer) compressOp(ordinal int) op {
	gi, seed := m.compression(ordinal)
	g := m.graphs[gi]
	return op{class: "compress", kind: kindCompress, method: "POST",
		path: "/v1/graphs/" + g.name + "/compress", body: compressBody(seed), ctype: "application/json",
		graph: g.name, seed: seed, ordinal: ordinal, n: g.g.N(), m: g.g.M()}
}

func tmpName(i int) string { return fmt.Sprintf("tmp-%d", i) }

func (m *mixer) createOp(i int) op {
	t := i % churnTwins
	return op{class: "create", kind: kindCreate, method: "POST",
		path: "/v1/graphs?name=" + tmpName(i) + "&memory=raw", body: m.twins[t], ctype: "application/octet-stream",
		graph: tmpName(i), n: m.twinDims[t][0], m: m.twinDims[t][1]}
}

func deleteOp(name string) op {
	return op{class: "delete", kind: kindDelete, method: "DELETE", path: "/v1/graphs/" + name, graph: name}
}

// --- blocks ------------------------------------------------------------------

func (m *mixer) hashOp(class, path string) op {
	return op{class: class, kind: kindHash, method: "GET", path: path, want: m.expect[path]}
}

// block returns the b-th block of the sequence.
func (m *mixer) block(b int) []op {
	r := rng.New(rng.Hash64(m.cfg.seed^0x626c6f636b, uint64(b)))
	var ops []op
	for _, cc := range blockMix[m.workload] {
		for j := 0; j < cc.count; j++ {
			ops = append(ops, op{class: cc.class})
		}
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })

	rmat := m.graphs[0].name
	nCompress, nCreate, nDelete := countOf(m.workload, "compress"), countOf(m.workload, "create"), countOf(m.workload, "delete")
	compressed := churnWarmSeeds + b*nCompress // compressions sequenced before this point
	created := churnLiveTmp + b*nCreate
	deleted := b * nDelete
	churnBFS := func() string {
		gi := zipfGraph(r.Float64())
		return pathBFS(m.graphs[gi].name, m.roots[gi][r.Intn(churnRoots)])
	}
	for i := range ops {
		switch class := ops[i].class; class {
		case "degrees":
			ops[i] = m.hashOp(class, pathDegrees(rmat))
		case "pagerank":
			ops[i] = m.hashOp(class, pathPageRank(rmat))
		case "triangles":
			ops[i] = m.hashOp(class, pathTriangles(rmat))
		case "triangles-approx":
			ops[i] = m.hashOp(class, pathTrianglesApprox(rmat, m.cfg.seed+uint64(r.Intn(approxSeeds))))
		case "bfs":
			if m.workload == wChurn {
				ops[i] = m.hashOp(class, churnBFS())
			} else {
				ops[i] = m.hashOp(class, pathBFS(rmat, m.roots[0][r.Intn(bfsRoots)]))
			}
		case "bfs-grid":
			ops[i] = m.hashOp(class, pathBFS(m.graphs[1].name, m.roots[1][r.Intn(gridRoots)]))
		case "bfs-variant":
			if m.workload != wChurn {
				ops[i] = m.hashOp(class, pathBFSVariant(rmat, m.roots[0][r.Intn(variantRoots)], variantSeed))
				break
			}
			ordinal := compressed - 1 - r.Intn(churnWarmSeeds)
			gi, seed := m.compression(ordinal)
			g := m.graphs[gi]
			ops[i] = op{class: class, kind: kindDynamic, method: "GET",
				path:  pathBFSVariant(g.name, m.roots[gi][r.Intn(churnVarRoots)], seed),
				graph: g.name, seed: seed, ordinal: ordinal}
		case "compress":
			ops[i] = m.compressOp(compressed)
			compressed++
		case "create":
			ops[i] = m.createOp(created)
			created++
		case "delete":
			ops[i] = deleteOp(tmpName(deleted))
			deleted++
		}
	}
	return ops
}
