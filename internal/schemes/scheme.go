package schemes

import (
	"strconv"
	"time"

	"slimgraph/internal/graph"
)

// Scheme is a configured compression scheme: a reusable, immutable value
// that can be applied to any graph. Every scheme in the registry (and every
// Pipeline of them) implements it, which is what lets one harness run,
// sweep, and chain arbitrary Table 2 schemes without per-scheme dispatch.
type Scheme interface {
	// Name is the registry name, e.g. "uniform" or "tr-eo".
	Name() string
	// Params is the canonical parameter string, e.g. "p=0.5". It is empty
	// for parameterless schemes and always parses back: see Spec and Parse.
	Params() string
	// Apply compresses g — a *graph.Graph, or a packed or mapped graph, which
	// every scheme reads in place but summarize, relabel and tr-collapse's
	// contraction, the three that build a graph on a new vertex set and
	// decode it once (graph.CSROf) — and never mutates it. The output is the
	// same for every representation of g and, per seed, at every worker
	// count: kernels whose instances read what others write either follow
	// an order-free rule (Edge-Once: core.SG.DelOnce) or run on triangles in
	// the reference order (tr-maxweight, tr-eo-redirect); tr-collapse's
	// shared union-find fixes a partition, whatever order it unions in.
	Apply(g graph.AdjacencyEdges) (*Result, error)
}

// Spec returns the spec string that Parse round-trips back into an
// equivalent scheme: "name:params" for a single scheme, stage specs joined
// with "|" for a Pipeline.
func Spec(s Scheme) string {
	if p, ok := s.(*Pipeline); ok {
		return p.Params()
	}
	if ps := s.Params(); ps != "" {
		return s.Name() + ":" + ps
	}
	return s.Name()
}

// Option is a run setting every scheme accepts — the seed or the worker
// budget — passed to Parse as a default for all stages. Everything specific
// to one scheme is a parameter in the spec string.
type Option func(*Args)

// WithSeed sets the random seed. Every scheme is deterministic per seed.
func WithSeed(seed uint64) Option { return func(a *Args) { a.Seed = seed } }

// WithWorkers sets the parallelism (<= 0 means all CPUs). No output depends
// on it (Scheme.Apply).
func WithWorkers(workers int) Option { return func(a *Args) { a.Workers = workers } }

// Args is what a registered kernel is handed at Apply time: the run
// settings and the value of every parameter its Registration declares,
// already parsed, range-checked and defaulted.
type Args struct {
	Seed    uint64
	Workers int

	params []Param  // the registration's table
	values []string // canonical spelling per table row
}

// value returns the canonical spelling of a declared parameter. Asking for
// a key or a kind the table does not declare is a programmer error.
func (a Args) value(key string, kind Kind) string {
	if i := index(a.params, key); i >= 0 && a.params[i].Kind == kind {
		return a.values[i]
	}
	panic("schemes: kernel read undeclared " + kind.String() + " parameter " + strconv.Quote(key))
}

// Float returns a Float parameter; an Auto parameter left automatic reads 0.
func (a Args) Float(key string) float64 {
	f, _ := strconv.ParseFloat(a.value(key, Float), 64) // "auto" fails to parse: 0
	return f
}

// Int returns an Int parameter.
func (a Args) Int(key string) int {
	n, _ := strconv.Atoi(a.value(key, Int))
	return n
}

// Bool returns a Bool parameter.
func (a Args) Bool(key string) bool { return a.value(key, Bool) == "true" }

// Enum returns an Enum parameter in the spelling its Values list uses.
func (a Args) Enum(key string) string { return a.value(key, Enum) }

// scheme is the one Scheme implementation behind every registry name: a
// registration plus the arguments one spec stage resolved to.
type scheme struct {
	reg  *Registration
	args Args
}

func (s *scheme) Name() string { return s.reg.Name }

// Params renders the table's rows in table order as "key=value,…", leaving
// out Quiet rows that sit at their default.
func (s *scheme) Params() string {
	b := make([]byte, 0, 64)
	for i, p := range s.reg.Params {
		if p.Sugar != nil || (p.Quiet && s.args.values[i] == s.reg.defaults[i]) {
			continue
		}
		if len(b) > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, p.Key...), '='), s.args.values[i]...)
	}
	return string(b)
}

// Apply runs the kernel and stamps the bookkeeping every Result shares:
// labels that match the spec, the input, and the elapsed time.
func (s *scheme) Apply(g graph.AdjacencyEdges) (*Result, error) {
	start := time.Now()
	res, err := s.reg.Apply(g, s.args)
	if err != nil {
		return nil, err
	}
	res.Scheme, res.Params, res.Input, res.Elapsed = s.Name(), s.Params(), g, time.Since(start)
	return res, nil
}
