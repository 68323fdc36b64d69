// Command slimgraph compresses a graph with any registered lossy scheme —
// or a pipeline of them — runs stage-2 algorithms on the original and the
// compressed graph, and reports the accuracy metrics of the Slim Graph
// analytics subsystem.
//
// Usage examples:
//
//	slimgraph -gen rmat -scale 14 -ef 8 -scheme uniform -p 0.5
//	slimgraph -input graph.el -scheme spanner -k 8 -out compressed.el
//	slimgraph -gen communities -n 20000 -scheme "tr-eo:p=0.8" -metrics
//	slimgraph -scheme "tr-eo:p=0.8|spanner:k=8"   # two-stage pipeline
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"slimgraph"
	"slimgraph/internal/gen"
)

const specGrammar = `Scheme specs (the -scheme argument) follow the registry grammar:

  spec   := stage ("|" stage)*          stages chain into a pipeline
  stage  := name [":" params]
  params := key "=" value ("," key "=" value)*

Examples: "uniform:p=0.5", "spectral:p=1,variant=avgdeg,reweight=true",
"tr-eo:p=0.8|spanner:k=8" (compress with Edge-Once TR, then spanner).
Parameters are native to each scheme (p is the keep probability for
uniform/vertexsample, the triangle sampling probability for the TR family,
the Υ scale for spectral). The -p/-k/-eps flags are shorthand appended to a
bare scheme name; they are ignored when the spec already carries parameters
or a pipeline.

Registered schemes:
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: it parses args, performs the
// compression run, writes human output to stdout and diagnostics to stderr,
// and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slimgraph", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		input   = fs.String("input", "", "input graph file: text edge list or binary snapshot, sniffed by magic")
		genKind = fs.String("gen", "rmat", "generator: rmat | er | ba | grid | communities | smallworld")
		scale   = fs.Int("scale", 12, "R-MAT scale (n = 2^scale)")
		ef      = fs.Int("ef", 8, "R-MAT edge factor")
		n       = fs.Int("n", 10000, "vertex count for non-R-MAT generators")
		seed    = fs.Uint64("seed", 1, "random seed (drives generation and compression)")
		scheme  = fs.String("scheme", "uniform",
			"scheme spec, e.g. uniform:p=0.5 or a pipeline tr-eo:p=0.8|spanner:k=8 (see usage)")
		workers  = fs.Int("workers", 0, "parallelism (0 = all CPUs)")
		weighted = fs.Bool("weighted", false, "attach uniform [1,100) weights to generated graphs")
		out      = fs.String("out", "", "write the compressed graph to this file (see -format)")
		format   = fs.String("format", "edgelist",
			"output format for -out: edgelist | binary | packed (packed keeps the vertex IDs; for a locality order add a relabel:order=degree|bfs|window stage to -scheme)")
		metrics = fs.Bool("metrics", true, "run stage-2 algorithms and print accuracy metrics")
	)
	// Shorthand flags, read back through fs.Visit in buildSpec.
	fs.Float64("p", 0.5, "shorthand for the p= spec parameter")
	fs.Int("k", 8, "shorthand for the k= spec parameter (spanner stretch)")
	fs.Float64("eps", 0.1, "shorthand for the eps= spec parameter (summarization)")
	fs.Usage = func() { usage(fs) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Reject a bad -format before the run: by write time the compression has
	// already cost minutes and os.Create would truncate the target.
	switch *format {
	case "edgelist", "binary", "packed":
	default:
		fmt.Fprintf(stderr, "slimgraph: unknown -format %q (want edgelist, binary, or packed)\n", *format)
		return 1
	}

	g, err := load(*input, *genKind, *scale, *ef, *n, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "slimgraph:", err)
		return 1
	}
	if *weighted {
		g = slimgraph.WithUniformWeights(g, 1, 100, *seed+1)
	}
	fmt.Fprintln(stdout, "input:", g)

	s, err := slimgraph.ParseScheme(buildSpec(fs, *scheme),
		slimgraph.WithSeed(*seed), slimgraph.WithWorkers(*workers))
	if err != nil {
		fmt.Fprintln(stderr, "slimgraph:", err)
		return 1
	}
	res, err := s.Apply(g)
	if err != nil {
		fmt.Fprintln(stderr, "slimgraph:", err)
		return 1
	}
	for _, stage := range res.Stages {
		fmt.Fprintln(stdout, "  stage", stage)
	}
	if aux, ok := res.Aux.(fmt.Stringer); ok {
		fmt.Fprintln(stdout, aux)
	}
	fmt.Fprintln(stdout, res)
	fmt.Fprintln(stdout, res.ComputeStorage())

	if *metrics && res.VertexMap == nil {
		printMetrics(stdout, g, res.Output, *workers)
	}
	if *out != "" {
		written, err := writeOutput(*out, *format, res.Output)
		if err != nil {
			fmt.Fprintln(stderr, "slimgraph:", err)
			return 1
		}
		if *format == "packed" {
			printEncodingReport(stdout, res.Output, *workers)
		}
		in := slimgraph.BinarySize(g)
		fmt.Fprintf(stdout, "wrote %s (%s, %d bytes; input binary %d bytes, %.1fx smaller)\n",
			*out, *format, written, in, float64(in)/float64(written))
	}
	return 0
}

// printEncodingReport shows what the pack's gap encoding looks like: payload
// bits per edge and the gap-width histogram of the adjacency.
func printEncodingReport(stdout io.Writer, g *slimgraph.Graph, workers int) {
	h := slimgraph.GapHistogram(g, nil, workers)
	bitsPerEdge := 0.0
	if g.M() > 0 {
		bitsPerEdge = float64(h.PayloadBytes) * 8 / float64(g.M())
	}
	fmt.Fprintln(stdout, "-- packed encoding --")
	fmt.Fprintf(stdout, "  payload %d bytes (%.2f bits/edge), gap widths mean %.2f p50 %d p90 %d p99 %d\n",
		h.PayloadBytes, bitsPerEdge, h.MeanBits(), h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99))
}

func usage(fs *flag.FlagSet) {
	fmt.Fprintf(fs.Output(), "usage: slimgraph [flags]\n\nFlags:\n")
	fs.PrintDefaults()
	fmt.Fprint(fs.Output(), "\n"+specGrammar)
	// One line per registered scheme; the parameters and their defaults are
	// rendered from the registration's table.
	for _, name := range slimgraph.SchemeNames() {
		info, _ := slimgraph.LookupScheme(name)
		line := info.About
		if len(info.Params) > 0 {
			line += " (" + info.Usage() + ")"
		}
		fmt.Fprintf(fs.Output(), "  %-16s %s\n", name, line)
	}
}

// writeOutput writes g to path in the selected format and returns the byte
// count. Edge lists report the file size after the fact; the binary formats
// count as they write.
func writeOutput(path, format string, g *slimgraph.Graph) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	switch format {
	case "edgelist":
		if err := slimgraph.WriteEdgeList(f, g); err != nil {
			return 0, err
		}
		info, err := f.Stat()
		if err != nil {
			return 0, err
		}
		return info.Size(), nil
	case "binary":
		return slimgraph.WriteBinary(f, g)
	case "packed":
		return slimgraph.WritePacked(f, g)
	default:
		return 0, fmt.Errorf("unknown -format %q (want edgelist, binary, or packed)", format)
	}
}

// buildSpec merges the -p/-k/-eps shorthand flags into a bare scheme name.
// Flags join the spec only when the user set them explicitly and the spec
// carries no parameters or pipeline of its own — an explicit spec is always
// authoritative.
func buildSpec(fs *flag.FlagSet, spec string) string {
	if strings.ContainsAny(spec, ":|") {
		return spec
	}
	var params []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "p", "k", "eps":
			params = append(params, f.Name+"="+f.Value.String())
		}
	})
	if len(params) == 0 {
		return spec
	}
	return spec + ":" + strings.Join(params, ",")
}

func load(input, genKind string, scale, ef, n int, seed uint64) (*slimgraph.Graph, error) {
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		// Binary snapshots (v1 or v2) are recognized by their magic; any
		// other content parses as a text edge list.
		return slimgraph.ReadGraph(f, false)
	}
	g, _, err := gen.Generate(genKind, scale, ef, n, seed, false)
	return g, err
}

// printMetrics reports the same Quality bundle the server's /compare
// endpoint returns, so the CLI and the service can never drift.
func printMetrics(stdout io.Writer, orig, comp *slimgraph.Graph, workers int) {
	q, err := slimgraph.CompareGraphs(orig, comp, workers)
	if err != nil {
		fmt.Fprintln(stdout, "accuracy metrics unavailable:", err)
		return
	}
	fmt.Fprintln(stdout, "-- accuracy metrics --")
	fmt.Fprintf(stdout, "KL(PageRank orig || compressed): %.4f bits\n", q.KLPageRank)
	fmt.Fprintf(stdout, "reordered PageRank pairs:        %.4f (of n^2)\n", q.ReorderedPairs)
	fmt.Fprintf(stdout, "connected components:            %d -> %d\n", q.Components, q.CompressedComponents)
	fmt.Fprintf(stdout, "triangles:                       %d -> %d\n", q.Triangles, q.CompressedTriangles)
	fmt.Fprintf(stdout, "BFS critical-edge retention:     %.2f\n", q.BFSRetention)
	fmt.Fprintf(stdout, "degree-distribution distance:    %.4f (TV)\n", q.DegreeDistance)
	if q.MSTWeight != nil {
		fmt.Fprintf(stdout, "MST weight:                      %.1f -> %.1f\n",
			*q.MSTWeight, *q.CompressedMSTWeight)
	}
}
