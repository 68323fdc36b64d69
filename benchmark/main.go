// Command benchmark is the repository's one performance harness: four named
// workloads driven from one process, every answer checked against a
// reference engine, every metric printed by name with its unit.
//
//	bash benchmark/run.sh                                  all workloads, untraced then traced, writes benchmark/out/results.json
//	bash benchmark/run.sh -runs 5 -out benchmark/out/a     five untraced runs per workload, for -compare
//	bash benchmark/run.sh -compare a/results.json b/results.json
//	bash benchmark/run.sh --workload serve-mapped --seed 3 --seconds 20 --trace 0   one run; the last line is the driver's JSON
//
// See README.md for what is measured and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"slimgraph/internal/obs"
)

const (
	defaultSeconds = 20
	pinnedScale    = 14
	// setupRepeats is how many times a run sets the workload up; setup_s is
	// the median, and the last set-up is the one the timed pass runs on.
	setupRepeats = 3
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload and print the driver's JSON line last; default: all four, untraced then traced")
	seed := fs.Uint64("seed", 1, "drives generator seeds, roots, scheme seeds and the operation shuffle")
	seconds := fs.Float64("seconds", defaultSeconds, "length of each timed pass; two results compare only at the same value")
	trace := fs.String("trace", "", "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced pass and the layer ladder; default: 0 with -workload, both without")
	runs := fs.Int("runs", 1, "untraced runs per workload when running all four")
	outDir := fs.String("out", defaultOutDir(), "directory for results.json, traces and temporary data")
	scale := fs.Int("scale", pinnedScale, "RMAT scale of the pinned graphs; anything but 14 is for tests only")
	breakGate := fs.Bool("break-gate", false, "self-test: corrupt one expected answer after set-up; the run must then report failures and exit non-zero")
	compare := fs.Bool("compare", false, "compare two results files given as arguments: parent first, change second")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fmt.Fprintf(stderr, "-trace takes 0 or 1, got %q\n", *trace)
		return 2
	}
	if *seconds <= 0 || *runs < 1 || *scale < 6 || *scale%2 != 0 {
		fmt.Fprintln(stderr, "-seconds must be positive, -runs at least 1, -scale even and at least 6")
		return 2
	}
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	cfg := config{seed: *seed, seconds: *seconds, scale: *scale, procs: procs, outDir: *outDir, breakGate: *breakGate}
	if *workload != "" {
		return runOne(cfg, *workload, *trace == "1", stdout, stderr)
	}
	return runAll(cfg, *runs, *trace, stdout, stderr)
}

// defaultOutDir is benchmark/out from the repository root and out from
// inside benchmark/.
func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return "benchmark/out"
	}
	return "out"
}

// driverLine is the last line of standard output in -workload mode.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the PR driver's entry point: one workload, one run.
func runOne(cfg config, name string, traced bool, stdout, stderr io.Writer) int {
	var r *runResult
	var err error
	// all is what the harness prints; declared is the part of it that
	// BENCHMARK.json promises the driver.
	all, declared := endToEnd, driverMetrics()
	if traced {
		all, declared = perLayer, perLayer
		r, err = runTraced(cfg, name)
	} else {
		r, err = runUntraced(cfg, name)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printRun(stdout, r, all)
	line := driverLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	for _, m := range declared {
		v, ok := r.Metrics[m.Name]
		if !ok {
			fmt.Fprintf(stderr, "benchmark: %s did not report %s\n", name, m.Name)
			return 1
		}
		line.Metrics[m.Name] = driverValue{Value: v, Unit: m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if r.Failed > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload: runs untraced runs each, then one traced run,
// printing every metric and writing results.json. The exit status is
// non-zero when any answer failed the correctness gate.
func runAll(cfg config, runs int, trace string, stdout, stderr io.Writer) int {
	commit := obs.Build().Revision
	if commit == "" {
		commit = "unknown" // built outside a git checkout
	}
	file := &resultsFile{Schema: 1, Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: cfg.procs, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Workloads: map[string]*workloadResults{}}
	fmt.Fprintf(stdout, "slimgraph benchmark: seed=%d seconds=%g scale=%d nproc=%d GOMAXPROCS=%d clients=%d %s commit=%s\n",
		cfg.seed, cfg.seconds, cfg.scale, file.NProc, cfg.procs, cfg.procs, file.GoVersion, file.Commit)
	failed := 0
	for _, name := range workloadNames {
		wr := &workloadResults{Why: workloadWhy[name]}
		file.Workloads[name] = wr
		if trace != "1" {
			for i := 0; i < runs; i++ {
				r, err := runUntraced(cfg, name)
				if err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
				printRun(stdout, r, endToEnd)
				failed += r.Failed
				wr.Runs = append(wr.Runs, r)
			}
		}
		if trace != "0" {
			r, err := runTraced(cfg, name)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			printRun(stdout, r, perLayer)
			failed += r.Failed
			wr.Traced = r
		}
		wr.fill(name)
	}
	path := filepath.Join(cfg.outDir, "results.json")
	if err := writeResults(path, file); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	if failed > 0 {
		fmt.Fprintf(stderr, "benchmark: %d answers failed the correctness gate\n", failed)
		return 1
	}
	return 0
}

func runCompare(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "-compare takes two results files: parent first, change second")
		return 2
	}
	a, err := readResults(paths[0])
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readResults(paths[1])
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	regressed, unresolved := compareFiles(stdout, a, b)
	fmt.Fprintf(stdout, "%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}
