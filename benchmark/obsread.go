package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"

	"slimgraph/internal/obs"
)

// scrape renders reg in Prometheus text format — the same bytes GET /metrics
// serves — and parses every sample line into name{labels} -> value, so the
// harness reads the instrument an operator reads.
func scrape(reg *obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumPrefix adds up every sample whose key is name or starts with name{.
func sumPrefix(vals map[string]float64, name string) float64 {
	var total float64
	for k, v := range vals {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// histDelta subtracts an earlier snapshot of the same histogram.
func histDelta(after, before obs.HistogramSnapshot) obs.HistogramSnapshot {
	if len(before.Counts) != len(after.Counts) {
		return after
	}
	d := obs.HistogramSnapshot{Bounds: after.Bounds, Counts: make([]int64, len(after.Counts)),
		Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	for i := range after.Counts {
		d.Counts[i] = after.Counts[i] - before.Counts[i]
	}
	return d
}

// histQuantile estimates the q-quantile of a bucketed distribution by
// linear interpolation inside the bucket that holds it, in the histogram's
// own unit. The overflow bucket reports its lower bound.
func histQuantile(s obs.HistogramSnapshot, q float64) float64 {
	if s.Count <= 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		next := cum + float64(c)
		if c > 0 && rank <= next {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			return lo + (s.Bounds[i]-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}
