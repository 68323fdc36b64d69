package schemes

import (
	"sync"

	"slimgraph/internal/core"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
	"slimgraph/internal/triangles"
	"slimgraph/internal/unionfind"
)

// TRVariant selects the Triangle Reduction flavor (§4.3).
type TRVariant int

const (
	// TRBasic is Triangle p-x-Reduction: every triangle is sampled with
	// probability p; a sampled triangle loses x edges chosen u.a.r.
	// Deletions of shared edges collide, so dense regions lose fewer
	// distinct edges than pT.
	TRBasic TRVariant = iota
	// TREO is Edge-Once p-1-TR: each edge is considered for removal at
	// most once. A sampled triangle picks one edge u.a.r.; the edge is
	// deleted only if no earlier triangle in the reference order considered
	// it (core.SG.DelOnce), and the triangle's other two edges become
	// protected ("considered") as well.
	// This realizes §4.3's protection of edges shared by many triangles
	// (per-edge deletion probability <= p/3 regardless of how many
	// triangles contain it) and the §6.1 analysis; it is also what keeps
	// the number of connected components stable in §7.2.
	//
	// Note: the paper's Listing 1 EO pseudocode is internally inconsistent
	// (its else-branch is unreachable), and Fig. 6 claims EO removes more
	// edges than TRBasic while §6.1/Table 5 require the protective
	// semantics implemented here, under which EO removes at most as many.
	// We follow the theory; experiments.Figure6TR and AblationEO measure the
	// deviation (slimbench -only fig6b,abl-eo).
	TREO
	// TRCT is the Count-Triangles variant of EO: the candidate edge is the
	// one belonging to the fewest triangles (instead of a uniform pick),
	// steering deletions toward structurally unshared edges.
	TRCT
	// TRMaxWeight removes the maximum-weight edge of a sampled triangle,
	// and only when the triangle's other two edges are still present — the
	// cycle property then guarantees the MST weight is preserved exactly
	// (§4.3, §6.1). That greedy check has no order-free rule, so triangles
	// are fed in the reference order (one emitting worker) at any worker count.
	TRMaxWeight
	// TRCollapse collapses each sampled triangle into a single vertex,
	// shrinking the vertex set as well (§4.3 "Triangle p-Reduction by
	// Collapse").
	TRCollapse
	// TREORedirect is the alternative, aggressive reading of the Edge-Once
	// pseudocode: a sampled triangle deletes a u.a.r. edge among its
	// not-yet-considered edges (marking only that edge), so nearly every
	// sampled triangle removes a distinct edge. This is the semantics
	// under which Fig. 6's "EO removes more than basic" holds, at the cost
	// of the §6.1 guarantees; it exists for the ablation study
	// (experiments.AblationEO). Use TREO for the theory-grade behaviour.
	// Like TRMaxWeight it is greedy and runs in the reference order.
	TREORedirect
)

func (v TRVariant) String() string {
	switch v {
	case TREO:
		return "EO"
	case TRCT:
		return "CT"
	case TRMaxWeight:
		return "maxweight"
	case TRCollapse:
		return "collapse"
	case TREORedirect:
		return "EO-redirect"
	default:
		return "basic"
	}
}

// triangleReduction returns the kernel of Triangle p-x-Reduction (§4.3) in
// the given variant. Work is O(m^{3/2}) for the triangle enumeration
// (Table 2); the CT variant adds one extra enumeration to count triangles
// per edge. x is 1 for every variant but the basic one, which also takes 2.
// The engine and the kernels read a packed or mapped g in place.
func triangleReduction(variant TRVariant) func(graph.AdjacencyEdges, Args) (*Result, error) {
	return func(g graph.AdjacencyEdges, a Args) (*Result, error) {
		p := a.Float("p")
		if variant == TRCollapse {
			return collapseTR(g, p, a), nil
		}
		// One engine per run: the CT variant's per-edge counting pass and
		// the kernel enumeration share the same forward CSR.
		eng := triangles.NewEngine(g, a.Workers)
		var perEdge []int64
		if variant == TRCT {
			perEdge = eng.PerEdge()
		}
		if variant == TRMaxWeight || variant == TREORedirect {
			eng = eng.WithWorkers(1) // greedy: the reference order decides
		}
		sg := core.New(g, a.Seed, a.Workers)
		sg.RunTriangleKernelOn(eng, trKernel(variant, p, a.Int("x"), perEdge), trIdle(sg, variant))
		return &Result{Output: sg.Materialize()}, nil
	}
}

// trIdle returns the variant's no-op condition (core.TriangleIdle): the
// state of a triangle's edges in which trKernel changes nothing whether or
// not the triangle is sampled and whichever edge it picks.
func trIdle(sg *core.SG, variant TRVariant) core.TriangleIdle {
	switch variant {
	case TREO, TRCT:
		return sg.OnceIdle
	case TRMaxWeight:
		// The heaviest edge is gone, or the triangle is no longer a cycle.
		return func(t *triangles.Triangle) bool {
			return sg.Deleted(t.E[0]) || sg.Deleted(t.E[1]) || sg.Deleted(t.E[2])
		}
	default:
		// Basic, EO-redirect: every candidate is already deleted, and Del
		// is idempotent.
		return func(t *triangles.Triangle) bool {
			return sg.Deleted(t.E[0]) && sg.Deleted(t.E[1]) && sg.Deleted(t.E[2])
		}
	}
}

// trKernel builds the triangle kernel for the non-collapse variants —
// these are the p-1-reduction and p-1-reduction-EO kernels of Listing 1.
func trKernel(variant TRVariant, trStays float64, x int, perEdge []int64) core.TriangleKernel {
	return func(sg *core.SG, r *rng.Rand, t core.TriangleView) {
		if r.Float64() >= trStays {
			return // triangle not sampled for reduction
		}
		switch variant {
		case TRBasic:
			first := r.Intn(3)
			sg.Del(t.E[first])
			if x == 2 {
				second := (first + 1 + r.Intn(2)) % 3
				sg.Del(t.E[second])
			}
		case TREO:
			// Pick one edge u.a.r.; delete it only if fresh, then protect
			// the whole triangle (each edge considered at most once).
			sg.DelOnce(t, r.Intn(3))
		case TREORedirect:
			// Aggressive reading: first fresh edge in a random order dies;
			// survivors stay fair game for other triangles. An edge is
			// considered exactly when it is deleted.
			first := r.Intn(3)
			for i := 0; i < 3; i++ {
				if e := t.E[(first+i)%3]; !sg.Deleted(e) {
					sg.Del(e)
					break
				}
			}
		case TRCT:
			// Candidate = edge with the fewest triangles; ties by ID.
			best := 0
			for i := 1; i < 3; i++ {
				c, b := perEdge[t.E[i]], perEdge[t.E[best]]
				if c < b || (c == b && t.E[i] < t.E[best]) {
					best = i
				}
			}
			sg.DelOnce(t, best)
		case TRMaxWeight:
			// Heaviest edge, deleted only while the triangle is still a
			// cycle (other two edges alive) — the MST cycle property.
			hi := 0
			for i := 1; i < 3; i++ {
				if t.Weights[i] > t.Weights[hi] ||
					(t.Weights[i] == t.Weights[hi] && t.E[i] > t.E[hi]) {
					hi = i
				}
			}
			o1, o2 := t.E[(hi+1)%3], t.E[(hi+2)%3]
			if !sg.Deleted(o1) && !sg.Deleted(o2) {
				sg.Del(t.E[hi])
			}
		}
	}
}

// collapseTR implements Triangle p-Reduction by Collapse: sampled
// triangles are merged into supervertices via union-find, then the graph is
// contracted (parallel edges merged, loops dropped). The kernel reads g in
// place; the contraction, which builds a graph on a new vertex set, takes a
// CSR of it (graph.CSROf).
func collapseTR(g graph.AdjacencyEdges, p float64, a Args) *Result {
	uf := unionfind.New(g.N())
	var mu sync.Mutex
	sg := core.New(g, a.Seed, a.Workers)
	sg.RunTriangleKernel(func(sg *core.SG, r *rng.Rand, t core.TriangleView) {
		if r.Float64() >= p {
			return
		}
		mu.Lock()
		uf.Union(t.V[0], t.V[1])
		uf.Union(t.V[1], t.V[2])
		mu.Unlock()
	})
	contracted, remap := graph.CSROf(g, a.Workers).Contract(uf.Labels())
	return &Result{Output: contracted, VertexMap: remap}
}
