// Package gen provides deterministic synthetic graph generators.
//
// The paper evaluates Slim Graph on SNAP/KONECT/DIMACS/WebDataCommons
// datasets. Those are proprietary-hosted downloads; this reproduction
// substitutes deterministic generators whose knobs control exactly the
// structural features the evaluation depends on: sparsity (m/n), degree
// skew (power-law exponent), and triangle density (T/n). The *Graphs
// functions of internal/experiments map each paper dataset (Table 4) to its
// generator analog.
package gen

import (
	"fmt"
	"math"

	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
)

// ErdosRenyi returns a G(n, m)-style random simple graph with approximately
// m edges (duplicates and self-loops are dropped by the builder).
func ErdosRenyi(n, m int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n))
		edges = append(edges, graph.Edge{U: u, V: v, W: 1})
	}
	return graph.FromEdges(n, false, edges)
}

// RMAT returns a recursive-matrix (Kronecker) graph with 2^scale vertices
// and approximately edgeFactor * 2^scale edges, using partition
// probabilities (a, b, c); d = 1-a-b-c. With the Graph500 parameters
// (0.57, 0.19, 0.19) it produces the skewed, triangle-rich structure of
// social networks — the analog of the paper's s-* graphs.
func RMAT(scale, edgeFactor int, a, b, c float64, seed uint64) *graph.Graph {
	return graph.FromEdges(1<<uint(scale), false, RMATEdges(scale, edgeFactor, a, b, c, seed))
}

// RMATDirected is RMAT but keeps arc directions — the analog of the paper's
// hyperlink (h-*) graphs, whose out-degree distributions Fig. 8 plots.
func RMATDirected(scale, edgeFactor int, a, b, c float64, seed uint64) *graph.Graph {
	return graph.FromEdges(1<<uint(scale), true, RMATEdges(scale, edgeFactor, a, b, c, seed))
}

// RMATEdges returns the edgeFactor * 2^scale edges RMAT and RMATDirected
// build from, in draw order: self-loops and duplicates included, unsorted.
//
// Each edge takes one draw per level. A level picks the first quadrant
// whose cumulative probability exceeds its draw x = k/2⁵³ (k the top 53
// bits): upper-left (x < a), upper-right (x < a+b, sets v's bit),
// lower-left (x < a+b+c, sets u's bit) or lower-right (both). Since
// k/2⁵³ < t ⇔ k < ⌈t·2⁵³⌉ exactly, the level compares k with three integer
// thresholds instead of branching on floats: u's bit is k ≥ a ∧ k ≥ a+b,
// v's is k ≥ a ∧ (k < a+b ∨ k ≥ a+b+c) — the same first match for every
// (a, b, c), degenerate ones included, and the same stream of draws.
func RMATEdges(scale, edgeFactor int, a, b, c float64, seed uint64) []graph.Edge {
	m := edgeFactor << uint(scale)
	ta, tab, tabc := threshold53(a), threshold53(a+b), threshold53(a+b+c)
	r := rng.New(seed)
	edges := make([]graph.Edge, m)
	for i := range edges {
		var u, v uint64
		for bit := 0; bit < scale; bit++ {
			k := r.Uint64() >> 11
			geA, geAB, geABC := atLeast(k, ta), atLeast(k, tab), atLeast(k, tabc)
			u |= (geA & geAB) << uint(bit)
			v |= (geA & (geAB ^ 1 | geABC)) << uint(bit)
		}
		edges[i] = graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: 1}
	}
	return edges
}

// threshold53 returns ⌈t·2⁵³⌉ clamped to [0, 2⁵³]: the least 53-bit k
// with k/2⁵³ ≥ t. A NaN t, which no draw is below, gives 0.
func threshold53(t float64) uint64 {
	switch {
	case !(t > 0):
		return 0
	case t >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(t * (1 << 53)))
}

// atLeast returns 1 if k >= t and 0 otherwise, without a branch; both
// operands are at most 2⁵³.
func atLeast(k, t uint64) uint64 { return (k-t)>>63 ^ 1 }

// BarabasiAlbert returns a preferential-attachment graph: n vertices, each
// new vertex attaching k edges to existing vertices with probability
// proportional to degree. Produces a power-law degree distribution with
// moderate triangle counts — the analog of the paper's v-ewk graph.
func BarabasiAlbert(n, k int, seed uint64) *graph.Graph {
	if k < 1 {
		k = 1
	}
	r := rng.New(seed)
	// Repeated-endpoints list: each edge contributes both endpoints, so
	// sampling a uniform element is degree-proportional sampling.
	targets := make([]graph.NodeID, 0, 2*n*k)
	edges := make([]graph.Edge, 0, n*k)
	start := k + 1
	if start > n {
		start = n
	}
	// Seed clique over the first start vertices.
	for u := 0; u < start; u++ {
		for v := u + 1; v < start; v++ {
			edges = append(edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: 1})
			targets = append(targets, graph.NodeID(u), graph.NodeID(v))
		}
	}
	for u := start; u < n; u++ {
		for j := 0; j < k; j++ {
			var v graph.NodeID
			if len(targets) == 0 {
				v = graph.NodeID(r.Intn(u))
			} else {
				v = targets[r.Intn(len(targets))]
			}
			edges = append(edges, graph.Edge{U: graph.NodeID(u), V: v, W: 1})
			targets = append(targets, graph.NodeID(u), v)
		}
	}
	return graph.FromEdges(n, false, edges)
}

// WattsStrogatz returns a small-world ring lattice: n vertices, each linked
// to its k nearest ring neighbors, with each edge rewired with probability
// beta. High clustering at low beta makes it a high-T/n analog (the paper's
// s-cds has T/n ~ 1000).
func WattsStrogatz(n, k int, beta float64, seed uint64) *graph.Graph {
	r := rng.New(seed)
	edges := make([]graph.Edge, 0, n*k/2)
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if r.Bernoulli(beta) {
				v = r.Intn(n)
			}
			edges = append(edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: 1})
		}
	}
	return graph.FromEdges(n, false, edges)
}

// Grid2D returns a rows x cols grid with 4-neighbor connectivity — the
// analog of the paper's v-usa road network (very sparse, almost no
// triangles, huge diameter). If diagonal is true, one diagonal per cell is
// added, which introduces triangles while keeping road-like sparsity.
func Grid2D(rows, cols int, diagonal bool) *graph.Graph {
	n := rows * cols
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	edges := make([]graph.Edge, 0, 2*n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, c+1), W: 1})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c), W: 1})
			}
			if diagonal && r+1 < rows && c+1 < cols {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c+1), W: 1})
			}
		}
	}
	return graph.FromEdges(n, false, edges)
}

// PlantedPartition returns a planted-community graph: n vertices split into
// communities of the given size, with intra-community edge probability pIn
// and a total of interEdges random inter-community edges. Dense communities
// give very high triangle density (s-cds analog).
func PlantedPartition(n, communitySize int, pIn float64, interEdges int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	edges := make([]graph.Edge, 0)
	for base := 0; base < n; base += communitySize {
		end := base + communitySize
		if end > n {
			end = n
		}
		for u := base; u < end; u++ {
			for v := u + 1; v < end; v++ {
				if r.Bernoulli(pIn) {
					edges = append(edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: 1})
				}
			}
		}
	}
	for i := 0; i < interEdges; i++ {
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n))
		edges = append(edges, graph.Edge{U: u, V: v, W: 1})
	}
	return graph.FromEdges(n, false, edges)
}

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: 1})
		}
	}
	return graph.FromEdges(n, false, edges)
}

// Path returns the path graph P_n.
func Path(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for u := 0; u+1 < n; u++ {
		edges = append(edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(u + 1), W: 1})
	}
	return graph.FromEdges(n, false, edges)
}

// Cycle returns the cycle graph C_n.
func Cycle(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n)
	for u := 0; u < n; u++ {
		edges = append(edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID((u + 1) % n), W: 1})
	}
	return graph.FromEdges(n, false, edges)
}

// Star returns the star graph with one hub (vertex 0) and n-1 leaves — the
// extreme case for degree-1 vertex kernels.
func Star(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: 0, V: graph.NodeID(v), W: 1})
	}
	return graph.FromEdges(n, false, edges)
}

// WithUniformWeights returns a weighted copy of g with i.i.d. uniform
// weights in [lo, hi), keyed deterministically by edge ID.
func WithUniformWeights(g *graph.Graph, lo, hi float64, seed uint64) *graph.Graph {
	return g.Reweight(func(e graph.EdgeID) float64 {
		u := float64(rng.Hash64(seed, uint64(e))>>11) / (1 << 53)
		return lo + u*(hi-lo)
	})
}

// Generate builds a graph by generator name, the one dispatch behind the
// CLIs' generator flags and the server's generator requests: rmat
// (2^scale vertices, ef edges per vertex), er (n vertices, n*ef edges), ba
// (n vertices, attachment degree ef), grid (the smallest square side with
// side² ≥ n), communities (n vertices in communities of 25) or smallworld
// (n vertices, ring degree ef). weighted adds uniform weights in [1, 100)
// keyed by seed+1. source names the generator with the parameters that
// shaped the graph.
func Generate(kind string, scale, ef, n int, seed uint64, weighted bool) (g *graph.Graph, source string, err error) {
	switch kind {
	case "rmat":
		g = RMAT(scale, ef, 0.57, 0.19, 0.19, seed)
		source = fmt.Sprintf("rmat:scale=%d,ef=%d,seed=%d", scale, ef, seed)
	case "er":
		g = ErdosRenyi(n, n*ef, seed)
		source = fmt.Sprintf("er:n=%d,m=%d,seed=%d", n, n*ef, seed)
	case "ba":
		g = BarabasiAlbert(n, ef, seed)
		source = fmt.Sprintf("ba:n=%d,k=%d,seed=%d", n, ef, seed)
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		g = Grid2D(side, side, false)
		source = fmt.Sprintf("grid:side=%d", side)
	case "communities":
		g = PlantedPartition(n, 25, 0.5, n, seed)
		source = fmt.Sprintf("communities:n=%d,seed=%d", n, seed)
	case "smallworld":
		g = WattsStrogatz(n, ef, 0.1, seed)
		source = fmt.Sprintf("smallworld:n=%d,k=%d,seed=%d", n, ef, seed)
	default:
		return nil, "", fmt.Errorf("unknown generator %q (rmat, er, ba, grid, communities, smallworld)", kind)
	}
	if weighted {
		g = WithUniformWeights(g, 1, 100, seed+1)
		source += ",weighted"
	}
	return g, source, nil
}

// LogNormalDegreeGraph builds a graph whose degree sequence is roughly
// log-normal with the given mean/sigma of log-degree (Chung–Lu style
// pairing). Used for hyperlink-graph analogs with heavy tails.
func LogNormalDegreeGraph(n int, mu, sigma float64, seed uint64) *graph.Graph {
	r := rng.New(seed)
	stubs := make([]graph.NodeID, 0, n*4)
	for v := 0; v < n; v++ {
		// Box–Muller normal sample.
		u1, u2 := r.Float64(), r.Float64()
		if u1 < 1e-12 {
			u1 = 1e-12
		}
		z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		deg := int(math.Exp(mu + sigma*z))
		if deg < 1 {
			deg = 1
		}
		if deg > n/2 {
			deg = n / 2
		}
		for i := 0; i < deg; i++ {
			stubs = append(stubs, graph.NodeID(v))
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	edges := make([]graph.Edge, 0, len(stubs)/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		edges = append(edges, graph.Edge{U: stubs[i], V: stubs[i+1], W: 1})
	}
	return graph.FromEdges(n, false, edges)
}
