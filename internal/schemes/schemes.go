// Package schemes implements every lossy compression scheme of the paper's
// Table 2 as Slim Graph compression kernels on top of internal/core:
//
//   - random uniform edge sampling (§4.2.2) — edge kernel
//   - spectral sparsification, log n and average-degree Υ variants
//     (§4.2.1) — edge kernel
//   - Triangle Reduction: p-1, p-2, Edge-Once, Count-Triangles, max-weight
//     (MST-preserving), and collapse variants (§4.3) — triangle kernels
//   - low-degree vertex removal (§4.4) — vertex kernel
//   - O(k)-spanners via low-diameter decomposition (§4.5.3) — subgraph
//     kernel
//
// Lossy summarization (§4.5.4) lives in internal/summarize because it is
// the one scheme with a convergence loop and a non-graph output (summary +
// corrections).
//
// A scheme is a kernel plus a parameter table: one Registration in
// builtin.go each. The registry (registry.go) is the rest — the spec
// grammar, range checks, defaults, the canonical spec string, usage text —
// and Parse is the one way to build a Scheme. Every scheme returns a Result
// carrying the compressed graph and the bookkeeping the evaluation needs
// (edge reduction, timing), stamped once by the registry.
package schemes

import (
	"fmt"
	"time"

	"slimgraph/internal/graph"
)

// Result is the outcome of one compression run.
type Result struct {
	Scheme string               // scheme name, e.g. "uniform"
	Params string               // human-readable parameter summary, e.g. "p=0.5"
	Input  graph.AdjacencyEdges // as given to Apply: raw, packed or mapped
	Output *graph.Graph
	// VertexMap is non-nil when the scheme changed the vertex set
	// (triangle collapse): VertexMap[old] = new vertex ID, -1 if dropped.
	VertexMap []graph.NodeID
	Elapsed   time.Duration
	// Stages holds the per-stage Results when this Result came from a
	// Pipeline, in application order.
	Stages []*Result
	// Aux carries scheme-specific artifacts beyond the compressed graph —
	// the summarize scheme stores its *summarize.Summary here.
	Aux any
	// Storage holds the snapshot-footprint accounting once ComputeStorage
	// has run; nil until then (computing it costs an encode pass).
	Storage *StorageStats
}

// CompressionRatio returns |E_compressed| / |E_original| — the coloring of
// Figure 5.
func (r *Result) CompressionRatio() float64 {
	if r.Input.M() == 0 {
		return 1
	}
	return float64(r.Output.M()) / float64(r.Input.M())
}

// EdgeReduction returns 1 - CompressionRatio — the y-axis of Figure 6.
func (r *Result) EdgeReduction() float64 { return 1 - r.CompressionRatio() }

// String summarizes the run.
func (r *Result) String() string {
	return fmt.Sprintf("%s(%s): m %d -> %d (%.1f%% reduction) in %v",
		r.Scheme, r.Params, r.Input.M(), r.Output.M(), 100*r.EdgeReduction(), r.Elapsed)
}

// StageTiming is one stage's contribution to a Result: its spec, the edge
// count its output retained, and its share of the elapsed time.
type StageTiming struct {
	Spec    string
	M       int
	Elapsed time.Duration
}

// Breakdown flattens the run into per-stage timings: one entry per leaf
// stage (nested pipelines recurse), or a single entry covering the whole
// run for a plain scheme. The Elapsed values sum exactly to r.Elapsed,
// because Pipeline.Apply accumulates its total from the same per-stage
// measurements.
func (r *Result) Breakdown() []StageTiming {
	if len(r.Stages) == 0 {
		spec := r.Scheme
		if r.Params != "" {
			spec += ":" + r.Params
		}
		return []StageTiming{{Spec: spec, M: r.Output.M(), Elapsed: r.Elapsed}}
	}
	var out []StageTiming
	for _, st := range r.Stages {
		out = append(out, st.Breakdown()...)
	}
	return out
}
