// Package summarize implements lossy ε-summarization in the style of SWeG
// (§4.5.4): vertices are clustered by minhash shingles of their
// neighborhoods, similar clusters merge into supervertices (generalized
// Jaccard similarity with a decaying threshold), parallel edges between
// supervertices merge into superedges, and two correction sets make the
// encoding exact — corrections⁺ (edges to re-insert on decode) and
// corrections⁻ (edges to drop on decode). The lossy parameter ε discards
// corrections within a per-vertex error budget of ⌊ε·deg(v)⌋, which bounds
// the symmetric difference of every decoded neighborhood and yields the
// paper's m ± 2εm edge bound (Table 3).
//
// This is the one Slim Graph scheme with the convergence loop of Listing 2:
// shingle grouping and merging repeat for a fixed number of iterations (the
// paper runs SWeG for I = 80; the default here is smaller because the merge
// gain saturates quickly on our graph sizes).
package summarize

import (
	"fmt"
	"sort"
	"time"

	"slimgraph/internal/graph"
	"slimgraph/internal/parallel"
	"slimgraph/internal/rng"
)

// Options configures Summarize.
type Options struct {
	// Iterations is the paper's I: rounds of shingle grouping + merging.
	// 0 means 10.
	Iterations int
	// Epsilon is the lossy error budget: each vertex may lose up to
	// ⌊ε·deg(v)⌋ correction entries. 0 is lossless summarization.
	Epsilon float64
	// GroupCap splits shingle groups larger than this (SWeG's split step);
	// 0 means 64.
	GroupCap int
	Seed     uint64
	Workers  int
}

func (o Options) withDefaults() Options {
	if o.Iterations == 0 {
		o.Iterations = 10
	}
	if o.GroupCap == 0 {
		o.GroupCap = 64
	}
	return o
}

// Summary is the compressed representation: supervertices, superedges, and
// corrections. It is not itself a Graph; Decode reconstructs one.
type Summary struct {
	Input *graph.Graph
	// SuperOf[v] is the representative (minimum member ID) of v's
	// supervertex — SG.min_id(cluster) in Listing 1.
	SuperOf []graph.NodeID
	// Supervertices is the number of distinct supervertices.
	Supervertices int
	// Superedges connect supervertex representatives (A <= B; A == B is a
	// self-superedge meaning "members form a clique").
	Superedges [][2]graph.NodeID
	// CorrectionsPlus are concrete edges present in the input but not
	// covered by superedges.
	CorrectionsPlus []graph.Edge
	// CorrectionsMinus are concrete edges implied by superedges but absent
	// from the input.
	CorrectionsMinus []graph.Edge
	// DroppedPlus/DroppedMinus count corrections discarded by the ε budget.
	DroppedPlus, DroppedMinus int
	Elapsed                   time.Duration
}

// StorageEdges returns the number of edge-sized records the summary stores:
// superedges plus surviving corrections — the storage cost the evaluation
// compares against m.
func (s *Summary) StorageEdges() int {
	return len(s.Superedges) + len(s.CorrectionsPlus) + len(s.CorrectionsMinus)
}

// CompressionRatio returns StorageEdges / m.
func (s *Summary) CompressionRatio() float64 {
	if s.Input.M() == 0 {
		return 1
	}
	return float64(s.StorageEdges()) / float64(s.Input.M())
}

// String summarizes the summary.
func (s *Summary) String() string {
	return fmt.Sprintf("summary: %d supervertices, %d superedges, +%d/-%d corrections (dropped %d/%d), ratio %.3f",
		s.Supervertices, len(s.Superedges), len(s.CorrectionsPlus), len(s.CorrectionsMinus),
		s.DroppedPlus, s.DroppedMinus, s.CompressionRatio())
}

// Summarize builds the lossy ε-summary of g. Directed graphs are not
// supported (SWeG summarizes undirected structure; the paper notes it
// "covers undirected graphs but uses a compression metric for directed
// graphs"); symmetrize first.
func Summarize(g *graph.Graph, opts Options) *Summary {
	if g.Directed() {
		panic("summarize: directed graphs are not supported; symmetrize first")
	}
	o := opts.withDefaults()
	start := time.Now()
	n := g.N()
	superOf := make([]graph.NodeID, n)
	for v := range superOf {
		superOf[v] = graph.NodeID(v)
	}

	for iter := 0; iter < o.Iterations; iter++ {
		groups := shingleGroups(g, superOf, o, uint64(iter))
		theta := 1.0 / float64(iter+1) // decaying merge threshold, SWeG's θ(t)
		mergeGroups(g, superOf, groups, theta, o.Workers)
	}

	s := encode(g, superOf)
	if o.Epsilon > 0 {
		applyEpsilon(g, s, o.Epsilon)
	}
	s.Elapsed = time.Since(start)
	return s
}

// shingleGroups buckets supervertices by the minhash of their combined
// neighborhoods and splits oversized buckets.
func shingleGroups(g *graph.Graph, superOf []graph.NodeID, o Options, iter uint64) [][]graph.NodeID {
	n := g.N()
	// Member lists per supervertex representative.
	members := make(map[graph.NodeID][]graph.NodeID)
	for v := 0; v < n; v++ {
		members[superOf[v]] = append(members[superOf[v]], graph.NodeID(v))
	}
	type keyed struct {
		shingle uint64
		rep     graph.NodeID
	}
	reps := make([]graph.NodeID, 0, len(members))
	for rep := range members {
		reps = append(reps, rep)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i] < reps[j] })
	keysPer := make([]keyed, len(reps))
	seed := o.Seed ^ (iter * 0x9e3779b97f4a7c15)
	parallel.For(len(reps), o.Workers, func(i int) {
		rep := reps[i]
		best := ^uint64(0)
		for _, v := range members[rep] {
			// Minhash shingle of the vertex-level combined neighborhood
			// (SWeG's SuperShingle): similar neighborhoods collide.
			for _, w := range g.Neighbors(v) {
				if h := rng.Hash64(seed, uint64(w)); h < best {
					best = h
				}
			}
			if h := rng.Hash64(seed, uint64(v)); h < best {
				best = h // include self so isolated vertices group too
			}
		}
		keysPer[i] = keyed{shingle: best, rep: rep}
	})
	sort.Slice(keysPer, func(i, j int) bool {
		if keysPer[i].shingle != keysPer[j].shingle {
			return keysPer[i].shingle < keysPer[j].shingle
		}
		return keysPer[i].rep < keysPer[j].rep
	})
	var groups [][]graph.NodeID
	for lo := 0; lo < len(keysPer); {
		hi := lo
		for hi < len(keysPer) && keysPer[hi].shingle == keysPer[lo].shingle {
			hi++
		}
		for s := lo; s < hi; s += o.GroupCap {
			e := s + o.GroupCap
			if e > hi {
				e = hi
			}
			if e-s >= 2 {
				group := make([]graph.NodeID, 0, e-s)
				for i := s; i < e; i++ {
					group = append(group, keysPer[i].rep)
				}
				groups = append(groups, group)
			}
		}
		lo = hi
	}
	return groups
}

// mergeGroups greedily merges supervertices within each group whose
// vertex-level generalized Jaccard similarity (SWeG's SuperJaccard: the
// union of member neighborhoods, as concrete vertices) reaches theta.
// Groups are disjoint, so they are processed in parallel — this is the
// subgraph-kernel step of §4.5.4.
func mergeGroups(g *graph.Graph, superOf []graph.NodeID, groups [][]graph.NodeID,
	theta float64, workers int) {
	// merges[i] collects (from, into) pairs decided inside group i.
	merges := make([][][2]graph.NodeID, len(groups))
	memberOf := make(map[graph.NodeID][]graph.NodeID)
	for v := 0; v < g.N(); v++ {
		memberOf[superOf[v]] = append(memberOf[superOf[v]], graph.NodeID(v))
	}
	parallel.For(len(groups), workers, func(gi int) {
		group := groups[gi]
		// Vertex-level combined neighbor sets of the group's supervertices.
		nbrSets := make([]map[graph.NodeID]struct{}, len(group))
		for i, rep := range group {
			set := make(map[graph.NodeID]struct{})
			for _, v := range memberOf[rep] {
				for _, w := range g.Neighbors(v) {
					set[w] = struct{}{}
				}
			}
			nbrSets[i] = set
		}
		alive := make([]bool, len(group))
		for i := range alive {
			alive[i] = true
		}
		for i := 0; i < len(group); i++ {
			if !alive[i] {
				continue
			}
			for j := i + 1; j < len(group); j++ {
				if !alive[j] {
					continue
				}
				if jaccard(nbrSets[i], nbrSets[j]) >= theta {
					merges[gi] = append(merges[gi], [2]graph.NodeID{group[j], group[i]})
					for k := range nbrSets[j] {
						nbrSets[i][k] = struct{}{}
					}
					alive[j] = false
				}
			}
		}
	})
	// Apply merges sequentially; representative = minimum member ID.
	redirect := make(map[graph.NodeID]graph.NodeID)
	resolve := func(r graph.NodeID) graph.NodeID {
		for {
			next, ok := redirect[r]
			if !ok {
				return r
			}
			r = next
		}
	}
	for _, groupMerges := range merges {
		for _, m := range groupMerges {
			from, into := resolve(m[0]), resolve(m[1])
			if from == into {
				continue
			}
			if from < into {
				from, into = into, from
			}
			redirect[from] = into
		}
	}
	for v := range superOf {
		superOf[v] = resolve(superOf[v])
	}
}

func jaccard(a, b map[graph.NodeID]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	for k := range small {
		if _, ok := large[k]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// encode decides superedge vs corrections for every supervertex pair — the
// SG.superedge step of Listing 1: a pair gets a superedge when more than
// half of the possible member pairs are real edges, with the missing ones
// recorded in corrections⁻; otherwise the real edges go to corrections⁺.
func encode(g *graph.Graph, superOf []graph.NodeID) *Summary {
	s := &Summary{Input: g, SuperOf: append([]graph.NodeID(nil), superOf...)}
	members := make(map[graph.NodeID][]graph.NodeID)
	for v := 0; v < g.N(); v++ {
		members[superOf[v]] = append(members[superOf[v]], graph.NodeID(v))
	}
	s.Supervertices = len(members)

	type pairKey struct{ a, b graph.NodeID }
	counts := make(map[pairKey]int)
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		a, b := superOf[u], superOf[v]
		if a > b {
			a, b = b, a
		}
		counts[pairKey{a, b}]++
	}
	keys := make([]pairKey, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	for _, k := range keys {
		cnt := counts[k]
		ma, mb := members[k.a], members[k.b]
		var possible int
		if k.a == k.b {
			possible = len(ma) * (len(ma) - 1) / 2
		} else {
			possible = len(ma) * len(mb)
		}
		if 2*cnt > possible {
			// Superedge plus corrections⁻ for the missing member pairs.
			s.Superedges = append(s.Superedges, [2]graph.NodeID{k.a, k.b})
			forEachPair(ma, mb, k.a == k.b, func(u, v graph.NodeID) {
				if !g.HasEdge(u, v) {
					s.CorrectionsMinus = append(s.CorrectionsMinus, graph.E(u, v))
				}
			})
		} else {
			// Corrections⁺ for the real edges.
			forEachPair(ma, mb, k.a == k.b, func(u, v graph.NodeID) {
				if g.HasEdge(u, v) {
					s.CorrectionsPlus = append(s.CorrectionsPlus, graph.E(u, v))
				}
			})
		}
	}
	return s
}

func forEachPair(ma, mb []graph.NodeID, same bool, fn func(u, v graph.NodeID)) {
	if same {
		for i := 0; i < len(ma); i++ {
			for j := i + 1; j < len(ma); j++ {
				fn(ma[i], ma[j])
			}
		}
		return
	}
	for _, u := range ma {
		for _, v := range mb {
			fn(u, v)
		}
	}
}

// applyEpsilon drops corrections within per-vertex budgets of ⌊ε·deg(v)⌋,
// charging both endpoints. Deterministic: corrections are processed in
// construction order.
func applyEpsilon(g *graph.Graph, s *Summary, eps float64) {
	budget := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		budget[v] = int(eps * float64(g.Degree(graph.NodeID(v))))
	}
	filter := func(in []graph.Edge, dropped *int) []graph.Edge {
		out := in[:0]
		for _, e := range in {
			if budget[e.U] > 0 && budget[e.V] > 0 {
				budget[e.U]--
				budget[e.V]--
				*dropped++
				continue
			}
			out = append(out, e)
		}
		return out
	}
	s.CorrectionsMinus = filter(s.CorrectionsMinus, &s.DroppedMinus)
	s.CorrectionsPlus = filter(s.CorrectionsPlus, &s.DroppedPlus)
}

// Decode reconstructs a plain graph from the summary: superedges expand to
// all member pairs, corrections⁻ remove, corrections⁺ add. With ε = 0 the
// result is exactly the input graph; with ε > 0 neighborhoods differ by at
// most the dropped corrections.
func (s *Summary) Decode() *graph.Graph {
	g := s.Input
	members := make(map[graph.NodeID][]graph.NodeID)
	for v := 0; v < g.N(); v++ {
		members[s.SuperOf[v]] = append(members[s.SuperOf[v]], graph.NodeID(v))
	}
	type ekey struct{ u, v graph.NodeID }
	norm := func(u, v graph.NodeID) ekey {
		if u > v {
			u, v = v, u
		}
		return ekey{u, v}
	}
	set := make(map[ekey]struct{})
	for _, se := range s.Superedges {
		forEachPair(members[se[0]], members[se[1]], se[0] == se[1], func(u, v graph.NodeID) {
			set[norm(u, v)] = struct{}{}
		})
	}
	for _, e := range s.CorrectionsMinus {
		delete(set, norm(e.U, e.V))
	}
	for _, e := range s.CorrectionsPlus {
		set[norm(e.U, e.V)] = struct{}{}
	}
	edges := make([]graph.Edge, 0, len(set))
	for k := range set {
		edges = append(edges, graph.E(k.u, k.v))
	}
	return graph.FromEdges(g.N(), false, edges)
}
