// Package obs is slimgraphd's dependency-free observability core: a metrics
// registry (atomic counters, float gauges, fixed-bucket latency histograms
// with mergeable snapshots), Prometheus text exposition, an HTTP middleware
// that assigns and propagates request IDs while recording per-endpoint
// latency, a pluggable structured request logger, and runtime/build
// introspection gauges.
//
// The design constraints mirror the serving layer's:
//
//   - No dependencies: everything is stdlib, so the package is importable
//     from any layer (server, cluster, CLIs) without pulling a client
//     library into the module.
//   - Mergeable by construction: histogram snapshots with identical bucket
//     bounds merge exactly (bucket counts are integers), so a cluster
//     coordinator aggregates shard histograms the same way MergeStats sums
//     cache counters. All latency histograms share LatencyBuckets by
//     default, making every pair mergeable.
//   - Cheap on the hot path: counters and histogram observations are a few
//     atomic operations; registry lookups are one short critical section.
//     Exposition cost is paid at scrape time only.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric. Metrics with the same name
// but different label values are separate series of one family and expose
// together under one HELP/TYPE header.
type Label struct {
	Key   string
	Value string
}

// LatencyBuckets are the default histogram bounds (seconds): exponential
// from 100µs to 10s. Every latency histogram in the system uses them, which
// is what makes any two latency snapshots mergeable.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// --- metric kinds ----------------------------------------------------------

// Counter is a monotonically increasing integer.
type Counter struct{ n atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d (negative deltas are ignored: counters only go up).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.n.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution: bounds are upper limits
// (Prometheus le semantics) with an implicit +Inf overflow bucket.
// Observations and snapshots are safe for concurrent use.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; the last is the +Inf bucket
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot captures the current distribution.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, designed to
// travel over JSON (the cluster's per-shard stats) and to merge: two
// snapshots with identical bounds combine by integer bucket addition, so
// aggregation is exact and order-independent on counts (Sum is a float sum
// and commutes, but like any float reduction is only approximately
// associative).
type HistogramSnapshot struct {
	// Bounds are the ascending bucket upper limits; Counts has one more
	// entry than Bounds, the overflow (+Inf) bucket, and holds per-bucket
	// (non-cumulative) counts.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Merge returns the combination of s and o. A zero-value snapshot merges as
// the identity; otherwise the bounds must match exactly.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) (HistogramSnapshot, error) {
	if len(s.Bounds) == 0 && s.Count == 0 {
		return o, nil
	}
	if len(o.Bounds) == 0 && o.Count == 0 {
		return s, nil
	}
	if len(s.Bounds) != len(o.Bounds) {
		return HistogramSnapshot{}, fmt.Errorf("obs: merging histograms with %d vs %d buckets", len(s.Bounds), len(o.Bounds))
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			return HistogramSnapshot{}, fmt.Errorf("obs: merging histograms with different bounds at %d: %g vs %g", i, s.Bounds[i], o.Bounds[i])
		}
	}
	out := HistogramSnapshot{
		Bounds: append([]float64(nil), s.Bounds...),
		Counts: make([]int64, len(s.Counts)),
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	return out, nil
}

// --- registry --------------------------------------------------------------

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one label combination of a family: exactly one of c/g/h/fn is
// set (fn backs func-valued counters and gauges, read at scrape time).
type series struct {
	labels string // rendered `k1="v1",k2="v2"` inner label string, "" if none
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family is every series sharing one metric name: one HELP, one TYPE, and
// for histograms one shared bucket layout (so all series merge).
type family struct {
	name    string
	help    string
	k       kind
	buckets []float64
	series  map[string]*series
}

// Registry holds named metric families and renders them in Prometheus text
// exposition format. Metric getters are idempotent: requesting an existing
// (name, labels) pair returns the same metric, so call sites need no
// registration phase. The zero Registry is not usable; construct with
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// getFamily finds or creates the family, enforcing kind consistency — a
// name registered as a counter can never re-register as a gauge (programmer
// error, so it panics rather than silently corrupting the exposition).
func (r *Registry) getFamily(name, help string, k kind, buckets []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, k: k, series: map[string]*series{}}
		if k == kindHistogram {
			if len(buckets) == 0 {
				buckets = LatencyBuckets
			}
			b := append([]float64(nil), buckets...)
			sort.Float64s(b)
			f.buckets = b
		}
		r.families[name] = f
		return f
	}
	if f.k != k {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.k, k))
	}
	return f
}

// renderLabels produces the canonical inner label string, keys sorted.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the exposition-format escapes: backslash, quote,
// and newline.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// escapeHelp escapes a HELP line: backslash and newline only.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindCounter, nil)
	key := renderLabels(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key, c: &Counter{}}
		f.series[key] = s
	}
	if s.c == nil {
		panic(fmt.Sprintf("obs: metric %q{%s} is func-backed; cannot return a Counter", name, key))
	}
	return s.c
}

// CounterFunc registers (or replaces) a counter whose value is read from fn
// at scrape time — the bridge for subsystems that already keep their own
// monotonic counters, like the variant cache.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindCounter, nil)
	key := renderLabels(labels)
	f.series[key] = &series{labels: key, fn: fn}
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindGauge, nil)
	key := renderLabels(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key, g: &Gauge{}}
		f.series[key] = s
	}
	if s.g == nil {
		panic(fmt.Sprintf("obs: metric %q{%s} is func-backed; cannot return a Gauge", name, key))
	}
	return s.g
}

// GaugeFunc registers (or replaces) a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindGauge, nil)
	key := renderLabels(labels)
	f.series[key] = &series{labels: key, fn: fn}
}

// Histogram returns the histogram for (name, labels), creating it on first
// use. buckets applies only when the family is first created (nil selects
// LatencyBuckets); existing families keep their layout so every series of a
// family stays mergeable.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindHistogram, buckets)
	key := renderLabels(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key, h: newHistogram(f.buckets)}
		f.series[key] = s
	}
	return s.h
}

// HistogramSnapshotOf returns the snapshot of an existing histogram series,
// or false when the (name, labels) pair was never observed into.
func (r *Registry) HistogramSnapshotOf(name string, labels ...Label) (HistogramSnapshot, bool) {
	r.mu.Lock()
	f, ok := r.families[name]
	var s *series
	if ok {
		s = f.series[renderLabels(labels)]
	}
	r.mu.Unlock()
	if s == nil || s.h == nil {
		return HistogramSnapshot{}, false
	}
	return s.h.Snapshot(), true
}
