package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// phaseResult is what one timed pass over a workload produced.
type phaseResult struct {
	mu         sync.Mutex
	wall       time.Duration
	attempted  int
	failed     int
	lat        map[string][]float64 // client-observed latency per class, ms
	notes      []string             // first few failure descriptions
	referenceS float64              // harness reference work done during the pass
}

func newPhaseResult() *phaseResult { return &phaseResult{lat: map[string][]float64{}} }

func (r *phaseResult) observe(class string, latencyMS float64) {
	r.lat[class] = append(r.lat[class], latencyMS)
}

func (r *phaseResult) note(format string, args ...any) {
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// merge folds a client's private result into r.
func (r *phaseResult) merge(o *phaseResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += o.attempted
	r.failed += o.failed
	r.referenceS += o.referenceS
	for class, xs := range o.lat {
		r.lat[class] = append(r.lat[class], xs...)
	}
	for _, n := range o.notes {
		r.note("%s", n)
	}
}

// sorted returns the class's samples in ascending order.
func (r *phaseResult) sorted(class string) []float64 {
	s := append([]float64(nil), r.lat[class]...)
	sort.Float64s(s)
	return s
}

// p50 returns the class's median latency.
func (r *phaseResult) p50(class string) float64 { return percentile(r.sorted(class), 0.5) }

// opsPerS is completed correct operations per second of measured wall time.
func (r *phaseResult) opsPerS() float64 {
	if r.wall <= 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / r.wall.Seconds()
}

// samples returns the per-class sample counts.
func (r *phaseResult) samples() map[string]int {
	out := make(map[string]int, len(r.lat))
	for class, xs := range r.lat {
		out[class] = len(xs)
	}
	return out
}
