// Command graphgen writes synthetic graphs (the generators internal/gen
// provides as analogs of the paper's datasets) to edge-list or binary files.
//
// Usage:
//
//	graphgen -type rmat -scale 16 -ef 8 -out web.el
//	graphgen -type grid -n 1000000 -weighted -format bin -out road.bin
package main

import (
	"flag"
	"fmt"
	"os"

	"slimgraph"
)

func main() {
	var (
		kind     = flag.String("type", "rmat", "rmat | er | ba | grid | communities | smallworld")
		scale    = flag.Int("scale", 14, "R-MAT scale")
		ef       = flag.Int("ef", 8, "edge factor / attachment degree")
		n        = flag.Int("n", 100000, "vertex count (non-R-MAT)")
		seed     = flag.Uint64("seed", 1, "seed")
		weighted = flag.Bool("weighted", false, "uniform [1,100) edge weights")
		format   = flag.String("format", "el", "el (text) | bin (binary snapshot)")
		out      = flag.String("out", "", "output file (default stdout for el)")
	)
	flag.Parse()

	var g *slimgraph.Graph
	switch *kind {
	case "rmat":
		g = slimgraph.GenerateRMAT(*scale, *ef, *seed)
	case "er":
		g = slimgraph.GenerateErdosRenyi(*n, *n**ef, *seed)
	case "ba":
		g = slimgraph.GenerateBarabasiAlbert(*n, *ef, *seed)
	case "grid":
		side := 1
		for side*side < *n {
			side++
		}
		g = slimgraph.GenerateGrid(side, side, false)
	case "communities":
		g = slimgraph.GenerateCommunities(*n, 25, 0.5, *n, *seed)
	case "smallworld":
		g = slimgraph.GenerateSmallWorld(*n, *ef, 0.1, *seed)
	default:
		fmt.Fprintf(os.Stderr, "graphgen: unknown type %q\n", *kind)
		os.Exit(1)
	}
	if *weighted {
		g = slimgraph.WithUniformWeights(g, 1, 100, *seed+1)
	}
	fmt.Fprintln(os.Stderr, "generated:", g)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	var err error
	switch *format {
	case "el":
		err = slimgraph.WriteEdgeList(w, g)
	case "bin":
		_, err = slimgraph.WriteBinary(w, g)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}
