// Package core implements the Slim Graph programming model (§3.1, §4.1):
// programmable compression kernels that observe a local part of the graph —
// a vertex, an edge, a triangle, or a subgraph — and delete (or reweight)
// selected elements, executed in parallel by the engine.
//
// The SG type is the paper's global container object: it carries the input
// graph, scheme parameters, and the atomic deletion state that makes
// "atomic SG.del(e)" a single compare-and-swap. Kernels never mutate the
// input graph; stage 1 marks deletions and Materialize rebuilds the
// compressed CSR (stage 2 then runs ordinary graph algorithms on it).
//
// The input is any graph.AdjacencyEdges, and every kernel reads it one way,
// in place: edge kernels and Materialize walk its canonical edge columns
// (EdgeColumns: zero-copy on a CSR, one block decode of a packed or mapped
// graph), vertex kernels its Degree, triangle kernels a triangles.Engine
// built over it. No CSR of a packed or mapped input ever exists.
//
// Randomness is keyed by graph element, not by thread: every kernel
// instance receives a PRNG seeded with hash(seed, element ID), so a fixed
// seed yields a bit-identical compressed graph regardless of the worker
// count or scheduling — reproducibility the paper's evaluation methodology
// needs.
//
// Cost of a kernel instance. The engine runs millions of instances, so an
// instance costs what enumerating its element costs plus the kernel body:
// each chunk of a Run*Kernel loop keeps one generator and re-seeds it in
// place per element (rng.Rand.Reseed — the stream is exactly rng.New's, no
// instance allocates). A reseed only stores the element's seed, and the
// instance's first draw costs one SplitMix64 output, so an instance that
// draws once (most do) or never pays for no more of the generator than it
// uses. An edge instance looks its weight up only on a weighted input, and
// kernels capture their parameters in the closure rather than looking them
// up per instance. A triangle kernel may also name an idle predicate
// (TriangleIdle): a condition under which the kernel changes nothing
// whatever it draws — for Edge-Once (DelOnce), "every edge already holds an
// earlier triangle's claim" (OnceIdle). Such an instance is retired before
// its key is hashed or its generator seeded. Skipping it is exact under any
// schedule because a no-op has no effect to reorder, and the state the
// predicates read only moves one way (a mark is never set back, a claim only
// falls), so an instance idle when tested is idle when it would have run.
package core

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"slimgraph/internal/bitset"
	"slimgraph/internal/graph"
	"slimgraph/internal/parallel"
	"slimgraph/internal/rng"
	"slimgraph/internal/triangles"
)

// SG is the global container object available to every kernel instance.
type SG struct {
	in      graph.AdjacencyEdges
	seed    uint64
	workers int

	// The canonical edge columns of the input, fetched once on first use
	// (zero-copy on a CSR, decoded otherwise): the SG's only cached view.
	edgesOnce sync.Once
	eu, ev    []graph.NodeID

	deletedEdges    *graph.EdgeSet // stage-1 deletion marks
	deletedVertices *bitset.Atomic
	claimOnce       sync.Once // Edge-Once claims (DelOnce), alive for one triangle run
	claims          []uint64

	// Reweighting state, allocated by the first SetWeight: most schemes
	// never reweight and pay nothing for the m-length column.
	weightOnce sync.Once
	weightSet  *graph.EdgeSet // edges a kernel assigned a weight
	weightBits []uint64       // their new weights as float64 bits
}

// New returns an SG over in: a *graph.Graph, or a packed or mapped graph,
// which every kernel reads in place. seed drives all kernel randomness;
// workers <= 0 uses all CPUs.
func New(in graph.AdjacencyEdges, seed uint64, workers int) *SG {
	return &SG{
		in:              in,
		seed:            seed,
		workers:         workers,
		deletedEdges:    graph.NewEdgeSet(in.M()),
		deletedVertices: bitset.NewAtomic(in.N()),
	}
}

// EdgeColumns returns the input's canonical edge columns (the endpoints of
// edge e are eu[e], ev[e]): zero-copy views of a CSR, one block decode of any
// other form, fetched by the first call and shared by every later one —
// RunEdgeKernel and Materialize included. Callers must not modify them. Safe
// for concurrent kernel instances.
func (sg *SG) EdgeColumns() (eu, ev []graph.NodeID) {
	sg.edgesOnce.Do(func() { sg.eu, sg.ev, _ = graph.EdgeColumnsOf(sg.in, sg.workers) })
	return sg.eu, sg.ev
}

// Del atomically deletes canonical edge e — both CSR directions disappear
// at materialization.
func (sg *SG) Del(e graph.EdgeID) { sg.deletedEdges.Add(e) }

// Deleted reports whether edge e has been deleted.
func (sg *SG) Deleted(e graph.EdgeID) bool { return sg.deletedEdges.Contains(e) }

// DeleteUnmarked deletes every edge absent from keep — the stage-2 "delete
// everything unmarked" step of keep-set kernels (spanners): one word-wise
// pass instead of an edge kernel. Call it only between kernel runs (no
// concurrent Del/SetWeight callers).
func (sg *SG) DeleteUnmarked(keep *graph.EdgeSet) {
	sg.deletedEdges.UnionComplement(keep)
}

// DelVertex atomically deletes vertex v: all incident edges disappear at
// materialization. The vertex set is preserved (the vertex becomes
// isolated) so per-vertex outputs stay comparable; use Compact afterwards
// to renumber.
func (sg *SG) DelVertex(v graph.NodeID) { sg.deletedVertices.Set(int(v)) }

// SetWeight assigns edge e a new weight in the compressed graph (the
// spectral kernel's "e.weight = 1/edge_stays"). Safe when each edge is
// written by one kernel instance, which edge kernels guarantee.
func (sg *SG) SetWeight(e graph.EdgeID, w float64) {
	sg.weightOnce.Do(sg.allocWeights)
	atomic.StoreUint64(&sg.weightBits[e], math.Float64bits(w))
	sg.weightSet.Add(e)
}

func (sg *SG) allocWeights() {
	sg.weightBits = make([]uint64, sg.in.M())
	sg.weightSet = graph.NewEdgeSet(sg.in.M())
}

// DeletedVertexCount returns the number of vertices deleted so far.
func (sg *SG) DeletedVertexCount() int { return sg.deletedVertices.Count() }

// reseed restarts r as the deterministic per-element PRNG.
func (sg *SG) reseed(r *rng.Rand, kind, key uint64) {
	r.Reseed(rng.Hash64(sg.seed^kind, key))
}

// Kind tags keep per-element random streams of different kernel types
// disjoint.
const (
	kindEdge     = 0x45444745 // "EDGE"
	kindVertex   = 0x56455254 // "VERT"
	kindTriangle = 0x54524941 // "TRIA"
	kindSubgraph = 0x53554247 // "SUBG"
)

// EdgeView is the kernel argument for edge kernels: the edge with adjacent
// vertices and their properties (§4.2).
type EdgeView struct {
	ID         graph.EdgeID
	U, V       graph.NodeID
	DegU, DegV int
	Weight     float64
}

// EdgeKernel is a compression kernel whose scope is a single edge.
type EdgeKernel func(sg *SG, r *rng.Rand, e EdgeView)

// RunEdgeKernel executes the kernel once per canonical edge, in parallel. It
// reads the input in place, every form one way: its canonical edge columns
// (zero-copy on a CSR, one block-parallel decode otherwise, which
// Materialize reuses), one pass over its degrees and, on a weighted input
// only, its EdgeWeight. EdgeView.Weight is 1 on an unweighted input, which
// holds no weight column.
func (sg *SG) RunEdgeKernel(k EdgeKernel) {
	eu, ev := sg.EdgeColumns()
	deg := make([]int32, sg.in.N())
	parallel.ForChunks(len(deg), sg.workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			deg[v] = int32(sg.in.Degree(graph.NodeID(v)))
		}
	})
	weighted := sg.in.Weighted() // unweighted edges weigh 1: no lookup
	parallel.ForChunks(len(eu), sg.workers, func(lo, hi int) {
		r := new(rng.Rand)
		for e := lo; e < hi; e++ {
			id, u, v := graph.EdgeID(e), eu[e], ev[e]
			view := EdgeView{ID: id, U: u, V: v, DegU: int(deg[u]), DegV: int(deg[v]), Weight: 1}
			if weighted {
				view.Weight = sg.in.EdgeWeight(id)
			}
			sg.reseed(r, kindEdge, uint64(e))
			k(sg, r, view)
		}
	})
}

// VertexView is the kernel argument for vertex kernels: a vertex and its
// degree.
type VertexView struct {
	ID  graph.NodeID
	Deg int
}

// VertexKernel is a compression kernel whose scope is a single vertex.
type VertexKernel func(sg *SG, r *rng.Rand, v VertexView)

// RunVertexKernel executes the kernel once per vertex, in parallel.
func (sg *SG) RunVertexKernel(k VertexKernel) {
	parallel.ForChunks(sg.in.N(), sg.workers, func(lo, hi int) {
		r := new(rng.Rand)
		for v := lo; v < hi; v++ {
			id := graph.NodeID(v)
			view := VertexView{ID: id, Deg: sg.in.Degree(id)}
			sg.reseed(r, kindVertex, uint64(v))
			k(sg, r, view)
		}
	})
}

// TriangleView is the kernel argument for triangle kernels: the triangle's
// vertices, its three canonical edges, and their weights. Edges[i] follows
// the triangles package convention (0: V0-V1, 1: V0-V2, 2: V1-V2).
type TriangleView struct {
	V       [3]graph.NodeID
	E       [3]graph.EdgeID
	Weights [3]float64
}

// TriangleKernel is a compression kernel whose scope is a triangle (§4.3).
type TriangleKernel func(sg *SG, r *rng.Rand, t TriangleView)

// TriangleIdle reports that a kernel instance on triangle t would change
// nothing whatever it draws (see the package doc). It is tested concurrently
// with running instances and must only read state that moves one way.
type TriangleIdle func(t *triangles.Triangle) bool

// rank is the triangle's place in the reference order of emission (lowest
// edge, then third vertex; E[0] < 2³¹), shifted to leave DelOnce a bit.
func rank(e0 graph.EdgeID, v2 graph.NodeID) uint64 { return (uint64(e0)<<32 | uint64(v2)) << 1 }

// DelOnce is §4.3's Edge-Once — delete the chosen edge unless an earlier
// triangle considered it, then consider all three — as a rule no schedule
// moves: in the reference order an edge dies exactly when the earliest
// sampled triangle holding it chose it. So t claims each edge by an atomic
// min of its rank, low bit clear on the chosen one. Call it only from a
// RunTriangleKernelOn kernel: the run deletes each edge its least claim chose.
func (sg *SG) DelOnce(t TriangleView, chosen int) {
	sg.claimOnce.Do(sg.allocClaims)
	r := rank(t.E[0], t.V[2])
	for i, e := range t.E {
		claim, w := r|uint64(min(1, i^chosen)), &sg.claims[e] // low bit: not chosen
		for old := atomic.LoadUint64(w); old > claim && !atomic.CompareAndSwapUint64(w, old, claim); {
			old = atomic.LoadUint64(w)
		}
	}
}

// OnceIdle is the TriangleIdle of DelOnce: every edge of t holds an earlier
// claim, and a claim only falls.
func (sg *SG) OnceIdle(t *triangles.Triangle) bool {
	sg.claimOnce.Do(sg.allocClaims)
	r := rank(t.E[0], t.V[2])
	return atomic.LoadUint64(&sg.claims[t.E[0]]) < r && atomic.LoadUint64(&sg.claims[t.E[1]]) < r &&
		atomic.LoadUint64(&sg.claims[t.E[2]]) < r
}

// allocClaims leaves every edge unclaimed: the top word, low bit set.
func (sg *SG) allocClaims() { sg.claims = slices.Repeat([]uint64{math.MaxUint64}, sg.in.M()) }

// RunTriangleKernel enumerates all triangles (O(m^{3/2}) work) and executes
// the kernel on each, in parallel: it builds a triangles.Engine over the
// input once for the run and drives the kernel off it. The per-triangle PRNG
// is keyed by the triangle's edge IDs, so results are schedule-independent.
func (sg *SG) RunTriangleKernel(k TriangleKernel) {
	sg.RunTriangleKernelOn(triangles.NewEngine(sg.in, sg.workers), k, nil)
}

// RunTriangleKernelOn is RunTriangleKernel over a prebuilt enumeration
// engine, so callers that already enumerated (e.g. for per-edge triangle
// counts) pay for the forward CSR only once. The engine must be built for
// this SG's input. Instances for which idle (optional) holds are retired
// without running the kernel. DelOnce claims become deletion marks on return.
func (sg *SG) RunTriangleKernelOn(en *triangles.Engine, k TriangleKernel, idle TriangleIdle) {
	if en.Graph() != sg.in {
		panic("core: triangle engine built for a different graph")
	}
	weighted := sg.in.Weighted() // unweighted edges weigh 1: no lookup
	en.ForEachBatch(func() func([]triangles.Triangle) {
		r := new(rng.Rand)
		return func(batch []triangles.Triangle) {
			for i := range batch {
				t := &batch[i]
				if idle != nil && idle(t) {
					continue
				}
				view := TriangleView{V: t.V, E: t.E, Weights: [3]float64{1, 1, 1}}
				if weighted {
					for j, e := range t.E {
						view.Weights[j] = sg.in.EdgeWeight(e)
					}
				}
				sg.reseed(r, kindTriangle,
					rng.Hash64(uint64(t.E[0]), rng.Hash64(uint64(t.E[1]), uint64(t.E[2]))))
				k(sg, r, view)
			}
		}
	})
	if claims := sg.claims; claims != nil {
		sg.deletedEdges.AddBatch(sg.workers, func(e graph.EdgeID) bool { return claims[e]&1 == 0 })
		sg.claims, sg.claimOnce = nil, sync.Once{}
	}
}

// SubgraphView is the kernel argument for subgraph kernels (§4.5): the
// member vertices of one subgraph of the current mapping, plus shared
// read-only access to the whole mapping so kernels can classify out-edges.
type SubgraphView struct {
	Index   int32          // dense subgraph index in [0, NumSubgraphs)
	Members []graph.NodeID // vertices of this subgraph
	Of      []int32        // Of[v] = subgraph index of any vertex v
	Count   int            // total number of subgraphs (SG.sgr_cnt)
}

// SubgraphKernel is a compression kernel whose scope is a subgraph.
type SubgraphKernel func(sg *SG, r *rng.Rand, s SubgraphView)

// RunSubgraphKernel executes the kernel once per subgraph of the mapping,
// in parallel. mapping[v] must be a dense subgraph index in [0, count).
func (sg *SG) RunSubgraphKernel(mapping []int32, count int, k SubgraphKernel) {
	// Counting sort of the vertices by subgraph into one array: after the
	// fill, end[c] is where subgraph c's members (ascending) stop and
	// subgraph c+1's begin.
	end := make([]int, count+1)
	for _, c := range mapping {
		end[c+1]++
	}
	for c := 0; c < count; c++ {
		end[c+1] += end[c]
	}
	members := make([]graph.NodeID, len(mapping))
	for v, c := range mapping {
		members[end[c]] = graph.NodeID(v)
		end[c]++
	}
	parallel.ForChunks(count, sg.workers, func(lo, hi int) {
		r := new(rng.Rand)
		for c := lo; c < hi; c++ {
			begin := 0
			if c > 0 {
				begin = end[c-1]
			}
			view := SubgraphView{
				Index: int32(c), Members: members[begin:end[c]], Of: mapping, Count: count,
			}
			sg.reseed(r, kindSubgraph, uint64(c))
			k(sg, r, view)
		}
	})
}

// Materialize produces the compressed graph from the deletion marks: edges
// survive unless deleted directly or incident to a deleted vertex; new
// weights from SetWeight apply. This is the stage-1 output of the engine,
// and the one place that decides what a compression outputs.
//
// The kept-edge set is assembled with word-wise bitset passes: the
// complement of the deletion marks, minus the edges with a deleted endpoint
// (one sweep of the edge columns). Every form is then built from the kept
// canonical edges alone (graph.FilterColumns over EdgeColumns), under the
// SG's worker budget: no edge list, no sorting, and bit-identical outputs.
func (sg *SG) Materialize() *graph.Graph {
	eu, ev := sg.EdgeColumns()
	kept := graph.NewEdgeSet(sg.in.M())
	kept.Fill()
	kept.Subtract(sg.deletedEdges)
	if sg.deletedVertices.Count() > 0 {
		dead := graph.NewEdgeSet(sg.in.M())
		dead.AddBatch(sg.workers, func(e graph.EdgeID) bool {
			return sg.deletedVertices.Get(int(eu[e])) || sg.deletedVertices.Get(int(ev[e]))
		})
		kept.Subtract(dead)
	}
	var weight func(e graph.EdgeID) float64
	switch {
	case sg.weightSet != nil:
		weight = func(e graph.EdgeID) float64 {
			if sg.weightSet.Contains(e) {
				return math.Float64frombits(atomic.LoadUint64(&sg.weightBits[e]))
			}
			return sg.in.EdgeWeight(e)
		}
	case sg.in.Weighted():
		weight = sg.in.EdgeWeight
	}
	return graph.FilterColumns(sg.in.N(), sg.in.Directed(), eu, ev, kept, weight, sg.workers)
}
