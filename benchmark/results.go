package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// summary is one metric on one workload across the runs of a results file.
type summary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"` // every run's value, in run order
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
}

// workloadResults is everything the harness learned about one workload.
type workloadResults struct {
	Why      string              `json:"why"`
	Runs     []*runResult        `json:"runs"`
	Traced   *runResult          `json:"traced,omitempty"`
	EndToEnd map[string]*summary `json:"end_to_end"`
	PerLayer map[string]*summary `json:"per_layer,omitempty"`
}

// resultsFile is benchmark/out/results.json.
type resultsFile struct {
	Schema     int                         `json:"schema"`
	Commit     string                      `json:"commit"`
	GoVersion  string                      `json:"go"`
	NProc      int                         `json:"nproc"`
	GOMAXPROCS int                         `json:"gomaxprocs"`
	Seed       uint64                      `json:"seed"`
	Seconds    float64                     `json:"seconds"` // length of each timed pass; the run length every comparison must share
	Scale      int                         `json:"scale"`
	Workloads  map[string]*workloadResults `json:"workloads"`
}

func summarize(m metric, workload string, values []float64) *summary {
	q1, q2, q3 := quartiles(values)
	return &summary{Unit: m.Unit, Better: m.Better, Bound: m.boundOn(workload),
		Values: values, Median: q2, Q1: q1, Q3: q3, N: len(values)}
}

// fill computes the summaries from the runs.
func (w *workloadResults) fill(workload string) {
	w.EndToEnd = map[string]*summary{}
	for _, m := range endToEnd {
		var values []float64
		for _, r := range w.Runs {
			if v, ok := r.Metrics[m.Name]; ok {
				values = append(values, v)
			}
		}
		if len(values) > 0 {
			w.EndToEnd[m.Name] = summarize(m, workload, values)
		}
	}
	if w.Traced == nil {
		return
	}
	w.PerLayer = map[string]*summary{}
	for _, m := range perLayer {
		if v, ok := w.Traced.Metrics[m.Name]; ok {
			w.PerLayer[m.Name] = summarize(m, workload, []float64{v})
		}
	}
}

func writeResults(path string, f *resultsFile) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// printRun lists one run's metrics by name, with units.
func printRun(w io.Writer, r *runResult, declared []metric) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s seed=%d %s (attempted %d, failed %d)\n", r.Workload, r.Seed, kind, r.Attempted, r.Failed)
	for _, m := range declared {
		v, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		note := ""
		if strings.HasPrefix(m.Name, "parallel.speedup_") && v == 1 {
			note = "  (1 core: not measured)"
		}
		fmt.Fprintf(w, "%-40s %14.6g %-6s%s\n", m.Name, v, m.Unit, note)
	}
	if !r.Traced {
		classes := make([]string, 0, len(r.Samples))
		for c := range r.Samples {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		fmt.Fprintf(w, "samples:")
		for _, c := range classes {
			fmt.Fprintf(w, " %s=%d", c, r.Samples[c])
		}
		fmt.Fprintln(w)
	} else {
		fmt.Fprintf(w, "trace: largest gap between an operation's span and the sum of its self times: %.3f%%\n", 100*r.TraceGap)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "FAILED: %s\n", n)
	}
}

// --- comparison ----------------------------------------------------------------------

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge compares b (the change) against a (the parent) for one metric. The
// change regressed when its median is worse than the parent's by more than
// the bound. It is unresolved when the run-to-run spread in either file is
// wider than the bound and the two ranges overlap: the noise could hide a
// regression of the size the bound is meant to catch, or fake one.
func judge(a, b *summary, absolute bool) (verdict, float64) {
	worse := b.Median - a.Median
	if a.Better == "higher" {
		worse = -worse
	}
	if absolute {
		if worse > a.Bound {
			return verdictRegressed, worse
		}
		return verdictOK, worse
	}
	if a.Median != 0 {
		worse /= math.Abs(a.Median)
	} else if worse != 0 {
		worse = math.Inf(int(math.Copysign(1, worse)))
	}
	noisy := spread(a.Values) > a.Bound || spread(b.Values) > a.Bound
	if noisy && overlap(a.Values, b.Values) {
		return verdictUnresolved, worse
	}
	if worse > a.Bound {
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

func overlap(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	return minA <= maxB && minB <= maxA
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// compareFiles prints a verdict per (workload, end-to-end metric) present in
// both files and returns how many regressed and how many are unresolved.
func compareFiles(w io.Writer, a, b *resultsFile) (regressed, unresolved int) {
	if a.Seconds != b.Seconds || a.Scale != b.Scale || a.GOMAXPROCS != b.GOMAXPROCS {
		fmt.Fprintf(w, "warning: run settings differ (seconds %g vs %g, scale %d vs %d, GOMAXPROCS %d vs %d); timings do not compare\n",
			a.Seconds, b.Seconds, a.Scale, b.Scale, a.GOMAXPROCS, b.GOMAXPROCS)
	}
	fmt.Fprintf(w, "%-15s %-18s %-11s %12s %12s %9s %7s  n\n", "workload", "metric", "verdict", "median a", "median b", "worse by", "bound")
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if sa == nil || sb == nil {
				continue
			}
			v, worse := judge(sa, sb, m.Absolute)
			switch v {
			case verdictRegressed:
				regressed++
			case verdictUnresolved:
				unresolved++
			}
			unit := "%"
			if m.Absolute {
				unit, worse = "", worse/100
			}
			fmt.Fprintf(w, "%-15s %-18s %-11s %12.6g %12.6g %8.2f%s %6.1f%%  %d/%d\n",
				name, m.Name, v, sa.Median, sb.Median, 100*worse, unit, 100*sa.Bound, sa.N, sb.N)
		}
	}
	return regressed, unresolved
}
