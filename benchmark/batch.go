package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"slimgraph/internal/centrality"
	"slimgraph/internal/components"
	"slimgraph/internal/graph"
	"slimgraph/internal/metrics"
	"slimgraph/internal/schemes"
	"slimgraph/internal/succinct"
	"slimgraph/internal/traverse"
	"slimgraph/internal/triangles"
)

// batchVerifyEvery is how often a timed sweep is checked against a fresh
// one-worker application of the same specs and seed. Checking every sweep
// would repeat a quarter of the measured work between the timed operations.
const batchVerifyEvery = 4

// batchPass is one (spec, graph) pair of a sweep.
type batchPass struct {
	spec, key string // "uniform:p=0.5", "uniform"
	graphName string
	g         *graph.Graph
}

// batchRef is the one-worker application of one pass at accuracySeed: the
// source of the exact metrics.
type batchRef struct {
	imageBytes int64 // servable image of the packed output
	packedBits int64 // in-memory packed form
	acc        accuracy
}

// batch is the offline pipeline workload: no server, one operation at a
// time, workers = GOMAXPROCS inside the operation.
type batch struct {
	cfg    config
	passes []batchPass
	refs   []batchRef
	dir    string
	// broken makes verify compare against another seed's output (-break-gate).
	broken bool
	// sink keeps kernel results reachable so the calls cannot be elided.
	sink float64
}

func (b *batch) generate() {
	gs := []struct {
		name string
		g    *graph.Graph
	}{{"rmat14", b.cfg.rmat(0)}, {"grid128", b.cfg.grid()}}
	b.passes = b.passes[:0]
	for _, g := range gs {
		for i, spec := range schemeSpecs {
			b.passes = append(b.passes, batchPass{spec: spec, key: schemeKeys[i], graphName: g.name, g: g.g})
		}
	}
}

// apply runs one spec at the given worker count.
func applySpec(spec string, g *graph.Graph, seed uint64, workers int) (*graph.Graph, error) {
	sch, err := schemes.Parse(spec, schemes.WithSeed(seed), schemes.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	res, err := sch.Apply(g)
	if err != nil {
		return nil, err
	}
	return res.Output, nil
}

// reference applies every pass once at one worker with accuracySeed. This
// is harness work, excluded from setup_s.
func (b *batch) reference() error {
	b.generate()
	b.refs = make([]batchRef, len(b.passes))
	origs := map[string]*original{}
	for i, p := range b.passes {
		out, err := applySpec(p.spec, p.g, accuracySeed, 1)
		if err != nil {
			return fmt.Errorf("reference %s on %s: %w", p.spec, p.graphName, err)
		}
		o := origs[p.graphName]
		if o == nil {
			o = newOriginal(p.g)
			origs[p.graphName] = o
		}
		pg := succinct.Pack(out, 1)
		b.refs[i] = batchRef{
			imageBytes: succinct.ServableSize(pg),
			packedBits: pg.SizeBits(),
			acc:        accuracyOf(o, out),
		}
	}
	return nil
}

// op runs one pass end to end, with a span around every step, and returns
// the compressed output.
func (b *batch) op(tr *tracer, opID int, p batchPass, seed uint64) (*graph.Graph, error) {
	w := b.cfg.procs
	root := tr.begin("op:"+p.key+"/"+p.graphName, -1, opID)
	defer tr.end(root)
	step := func(name string, fn func() error) error {
		id := tr.begin(name, root, opID)
		defer tr.end(id)
		return fn()
	}

	var sch schemes.Scheme
	var out *graph.Graph
	var pg *succinct.PackedGraph
	path := filepath.Join(b.dir, "pass.sgp")
	if err := step("schemes.Parse", func() (err error) {
		sch, err = schemes.Parse(p.spec, schemes.WithSeed(seed), schemes.WithWorkers(w))
		return err
	}); err != nil {
		return nil, err
	}
	if err := step("schemes.Apply", func() error {
		res, err := sch.Apply(p.g)
		if err == nil {
			out = res.Output
		}
		return err
	}); err != nil {
		return nil, err
	}
	_ = step("succinct.Pack", func() error { pg = succinct.Pack(out, w); return nil })
	if err := step("succinct.WriteServable", func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if _, err := succinct.WriteServable(f, pg); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}); err != nil {
		return nil, err
	}
	if err := step("succinct.OpenPacked", func() error {
		m, err := succinct.OpenPacked(path)
		if err != nil {
			return err
		}
		if m.M() != out.M() || m.N() != out.N() {
			m.Close()
			return fmt.Errorf("reopened image has n=%d m=%d, packed n=%d m=%d", m.N(), m.M(), out.N(), out.M())
		}
		return m.Close()
	}); err != nil {
		return nil, err
	}
	_ = step("traverse.BFS", func() error {
		b.sink += float64(traverse.BFS(out, 0, w).Reached())
		return nil
	})
	_ = step("centrality.PageRank", func() error {
		b.sink += centrality.PageRank(out, centrality.PageRankOptions{Workers: w})[0]
		return nil
	})
	_ = step("triangles.Count", func() error {
		b.sink += float64(triangles.Count(out, w))
		return nil
	})
	_ = step("metrics.DegreeDistribution", func() error {
		b.sink += float64(len(metrics.DegreeDistribution(out)))
		return nil
	})
	return out, nil
}

// verify checks a timed output against the one-worker output of the same
// spec and seed: deterministic schemes must be equal; tr-eo, whose result
// depends on the schedule above one worker, must keep the component count
// and stay within 2% of the one-worker edge count.
func (b *batch) verify(p batchPass, seed uint64, out *graph.Graph) (bool, error) {
	if b.broken {
		seed++
	}
	want, err := applySpec(p.spec, p.g, seed, 1)
	if err != nil {
		return false, err
	}
	if p.key != "tr-eo" {
		return out.Equal(want), nil
	}
	return components.Count(out) == components.Count(want) &&
		math.Abs(float64(out.M()-want.M())) <= 0.02*float64(want.M()), nil
}

// setUp generates the graphs and runs one untimed sweep so every lazy
// structure exists before timing starts.
func (b *batch) setUp() error {
	dir, err := os.MkdirTemp(b.cfg.outDir, "batch-")
	if err != nil {
		return err
	}
	b.dir = dir
	b.generate()
	for _, p := range b.passes {
		if _, err := b.op(nil, 0, p, b.cfg.seed); err != nil {
			return err
		}
	}
	return nil
}

func (b *batch) tearDown() { os.RemoveAll(b.dir) }

// pass runs whole sweeps until the measured time reaches dur. The measured
// time is the sum of the operations' durations; the one-worker reference
// applications that check sampled sweeps run between operations and are not
// part of it.
func (b *batch) pass(dur time.Duration, tr *tracer) (*phaseResult, error) {
	res := newPhaseResult()
	var measured time.Duration
	for sweep := 0; measured < dur; sweep++ {
		seed := b.cfg.seed + uint64(sweep)
		for _, p := range b.passes {
			t0 := time.Now()
			out, err := b.op(tr, res.attempted, p, seed)
			d := time.Since(t0)
			measured += d
			res.attempted++
			if err != nil {
				res.failed++
				res.note("batch %s on %s seed %d: %v", p.spec, p.graphName, seed, err)
				continue
			}
			res.observe("op", ms(d.Nanoseconds()))
			if sweep%batchVerifyEvery != 0 {
				continue
			}
			t1 := time.Now()
			ok, err := b.verify(p, seed, out)
			if err != nil {
				return nil, err
			}
			if !ok {
				res.failed++
				res.note("batch %s on %s seed %d: output differs from the one-worker reference", p.spec, p.graphName, seed)
			}
			// The reference application's garbage is the harness's, not the
			// next operation's.
			runtime.GC()
			res.referenceS += time.Since(t1).Seconds()
		}
	}
	res.wall = measured
	return res, nil
}

// finish adds the metrics that repeat exactly: they come from the
// one-worker reference outputs, not from the timed sweeps, so a change
// cannot buy throughput by compressing harder or sloppier without it
// showing here.
func (b *batch) finish(_ *phaseResult, m map[string]float64) error {
	var imageBits, packedBytes, inputEdges, kl, tri, bfs float64
	for i, r := range b.refs {
		imageBits += float64(r.imageBytes) * 8
		packedBytes += float64(r.packedBits) / 8
		inputEdges += float64(b.passes[i].g.M())
		kl += r.acc.klPageRank
		tri += r.acc.triangleRelErr
		bfs += r.acc.bfsRetention
	}
	n := float64(len(b.refs))
	m["bits_per_edge"] = imageBits / inputEdges
	m["resident_mb"] = mib(packedBytes)
	m["kl_pagerank"], m["triangle_rel_err"], m["bfs_retention"] = kl/n, tri/n, bfs/n
	return nil
}

// counters: the batch pipeline has no server to read counters from.
func (b *batch) counters() (layerCounters, error) { return layerCounters{}, nil }

func (b *batch) breakGate() { b.broken = true }
