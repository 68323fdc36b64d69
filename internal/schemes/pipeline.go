package schemes

import (
	"fmt"
	"strings"
	"time"

	"slimgraph/internal/graph"
)

// Pipeline chains schemes: stage i+1 compresses stage i's output, so only
// the first stage can read a packed or mapped input in place. It is
// itself a Scheme, so pipelines nest, register, sweep, and apply exactly
// like single schemes. The composite Result spans the whole chain — its
// Input is the original graph, its Output the last stage's graph, its
// VertexMap the composition of every stage's vertex remapping, its Elapsed
// the total compression time, and Stages the per-stage Results.
type Pipeline struct {
	stages []Scheme
}

// NewPipeline builds a pipeline over the given stages, in order. At least
// one stage is required and none may be nil.
func NewPipeline(stages ...Scheme) (*Pipeline, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("schemes: pipeline needs at least one stage")
	}
	for i, s := range stages {
		if s == nil {
			return nil, fmt.Errorf("schemes: pipeline stage %d is nil", i)
		}
	}
	return &Pipeline{stages: append([]Scheme(nil), stages...)}, nil
}

// Stages returns the pipeline's stages in application order.
func (p *Pipeline) Stages() []Scheme { return append([]Scheme(nil), p.stages...) }

// Name implements Scheme.
func (p *Pipeline) Name() string { return "pipeline" }

// Params implements Scheme: the "|"-joined stage specs, which is also the
// pipeline's own spec (see Spec).
func (p *Pipeline) Params() string {
	specs := make([]string, len(p.stages))
	for i, s := range p.stages {
		specs[i] = Spec(s)
	}
	return strings.Join(specs, "|")
}

// Apply runs every stage in order and composes the bookkeeping.
func (p *Pipeline) Apply(g graph.AdjacencyEdges) (*Result, error) {
	cur := g
	var vmap []graph.NodeID
	var elapsed time.Duration
	stages := make([]*Result, 0, len(p.stages))
	for _, s := range p.stages {
		res, err := s.Apply(cur)
		if err != nil {
			return nil, fmt.Errorf("schemes: pipeline stage %s: %w", Spec(s), err)
		}
		stages = append(stages, res)
		elapsed += res.Elapsed
		vmap = composeVertexMap(vmap, res.VertexMap)
		cur = res.Output
	}
	last := stages[len(stages)-1]
	final := &Result{
		Scheme: p.Name(), Params: p.Params(),
		Input: g, Output: last.Output,
		VertexMap: vmap,
		Elapsed:   elapsed,
		Stages:    stages,
		// The last stage's artifacts describe the pipeline's output, so
		// they surface at the top level too (earlier stages' Aux stays
		// reachable through Stages).
		Aux: last.Aux,
	}
	return final, nil
}

// composeVertexMap folds a stage's vertex remapping into the running
// original-to-current mapping. A nil stage map means the stage kept the
// vertex set; a nil running map means no stage has remapped yet.
func composeVertexMap(acc, stage []graph.NodeID) []graph.NodeID {
	if stage == nil {
		return acc
	}
	if acc == nil {
		return append([]graph.NodeID(nil), stage...)
	}
	out := make([]graph.NodeID, len(acc))
	for i, mid := range acc {
		if mid < 0 || int(mid) >= len(stage) {
			out[i] = -1
			continue
		}
		out[i] = stage[mid]
	}
	return out
}
