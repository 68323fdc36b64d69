package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"slimgraph/internal/graph"
	"slimgraph/internal/obs"
	"slimgraph/internal/schemes"
	"slimgraph/internal/succinct"
	"slimgraph/internal/triangles"
)

// Local is the in-process engine: a two-tier catalog of named graphs
// (heap-resident or memory-mapped from the data directory) plus a
// single-flight variant cache, implementing Catalog and QueryBackend for a
// single node. A cluster replica is one too, marked by MarkReplica.
type Local struct {
	opts    Options
	catalog *catalog
	cache   *cache
	reg     *obs.Registry
	start   time.Time
	replica bool // see MarkReplica
	// attached records the graphs the startup scan re-attached from the data
	// directory, in attach order, and skipped the snapshots it could not
	// attach, each with the reason — cmd/slimgraphd logs both.
	attached []string
	skipped  []string
}

// NewLocal returns a Local engine. With Options.DataDir set it opens the
// disk tier, deletes interrupted-write leftovers, and re-attaches every
// complete snapshot memory-mapped — the warm-restart path: the first query
// after a restart serves from the mapping with no decode pass.
func NewLocal(opts Options) (*Local, error) {
	o := opts.withDefaults()
	l := &Local{
		opts:    o,
		catalog: newCatalog(),
		cache:   newCache(o.CacheCapacity),
		reg:     o.Registry,
		start:   time.Now(),
	}
	if o.DataDir != "" {
		st, err := newStore(o.DataDir)
		if err != nil {
			return nil, err
		}
		l.catalog.store = st
		l.catalog.budget = o.MemBudget
		l.cache.onEvict = l.spillVariant
		names, err := st.scanGraphs()
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			// A snapshot that does not attach (written in a retired format
			// version, or torn by an outside force; the atomic-write
			// protocol never produces one) is skipped, not fatal: the rest
			// of the catalog must still come up.
			if err := l.catalog.attach(name); err != nil {
				l.skipped = append(l.skipped, fmt.Sprintf("%q: %v", name, err))
				continue
			}
			l.attached = append(l.attached, name)
		}
	}
	l.instrument()
	return l, nil
}

// Attached returns the graphs the startup scan re-attached from the data
// directory, in attach order.
func (l *Local) Attached() []string { return l.attached }

// Skipped returns, as `"name": reason`, the snapshots in the data directory
// the startup scan could not attach; they are left on disk and not served.
func (l *Local) Skipped() []string { return l.skipped }

// instrument registers the engine's observability surface: func-backed
// counters over the variant cache's own counters (one source of truth, no
// double bookkeeping), catalog residency gauges, the disk-tier traffic
// counters, and the triangle-engine build counter. The compress-latency
// histograms register lazily per scheme family in variantOf.
func (l *Local) instrument() {
	cacheCounter := func(name, help string, read func(CacheStats) int64) {
		l.reg.CounterFunc(name, help, func() float64 { return float64(read(l.cache.snapshot())) })
	}
	cacheCounter("slimgraph_cache_hits_total",
		"Variant-cache lookups answered by a resident entry.",
		func(s CacheStats) int64 { return s.Hits })
	cacheCounter("slimgraph_cache_misses_total",
		"Variant-cache lookups that required a compression execution.",
		func(s CacheStats) int64 { return s.Misses })
	cacheCounter("slimgraph_cache_coalesced_total",
		"Lookups that joined an in-flight execution (single-flight).",
		func(s CacheStats) int64 { return s.Coalesced })
	cacheCounter("slimgraph_cache_executions_total",
		"Compression executions the cache actually ran.",
		func(s CacheStats) int64 { return s.Executions })
	cacheCounter("slimgraph_cache_failures_total",
		"Compression executions that failed (failures are never cached).",
		func(s CacheStats) int64 { return s.Failures })
	cacheCounter("slimgraph_cache_evictions_total",
		"Variants evicted by the LRU capacity bound.",
		func(s CacheStats) int64 { return s.Evictions })
	l.reg.GaugeFunc("slimgraph_cache_entries",
		"Compressed variants currently resident.",
		func() float64 { return float64(l.cache.snapshot().Entries) })
	l.reg.GaugeFunc("slimgraph_cache_capacity",
		"Variant-cache capacity bound.",
		func() float64 { return float64(l.cache.snapshot().Capacity) })
	l.reg.GaugeFunc("slimgraph_catalog_graphs",
		"Named graphs resident in the catalog.",
		func() float64 { return float64(l.catalog.size()) })
	l.reg.GaugeFunc("slimgraph_catalog_raw_bytes",
		"Estimated bytes of raw-resident (CSR) catalog graphs.",
		func() float64 { raw, _, _, _ := l.catalog.residentBytes(); return float64(raw) })
	l.reg.GaugeFunc("slimgraph_catalog_packed_bytes",
		"Bytes of packed-resident (succinct) catalog graphs.",
		func() float64 { _, packed, _, _ := l.catalog.residentBytes(); return float64(packed) })
	l.reg.GaugeFunc("slimgraph_catalog_arena_bytes",
		"Bytes of cached triangle-engine arenas (heap, reclaimed on spill).",
		func() float64 { _, _, arena, _ := l.catalog.residentBytes(); return float64(arena) })
	l.reg.GaugeFunc("slimgraph_catalog_mapped_bytes",
		"Bytes of memory-mapped servable snapshots (page cache, not heap).",
		func() float64 { _, _, _, mapped := l.catalog.residentBytes(); return float64(mapped) })
	// Cached variants, kept apart from the catalog gauges above: raw is the
	// CSR of a computed output (heap), mapped the servable image of one
	// faulted back in from the disk tier (page cache).
	rawVariants, mappedVariants := obs.Label{Key: "residency", Value: ResidencyRaw}, obs.Label{Key: "residency", Value: ResidencyMapped}
	const variantBytesHelp = "Estimated bytes of cached variants by residency: raw CSR outputs or mapped spilled snapshots."
	const variantsHelp = "Cached variants by residency: raw CSR outputs or mapped spilled snapshots."
	l.reg.GaugeFunc("slimgraph_cache_variant_bytes", variantBytesHelp,
		func() float64 { b, _, _, _ := l.cache.residency(); return float64(b) }, rawVariants)
	l.reg.GaugeFunc("slimgraph_cache_variant_bytes", variantBytesHelp,
		func() float64 { _, b, _, _ := l.cache.residency(); return float64(b) }, mappedVariants)
	l.reg.GaugeFunc("slimgraph_cache_variants", variantsHelp,
		func() float64 { _, _, n, _ := l.cache.residency(); return float64(n) }, rawVariants)
	l.reg.GaugeFunc("slimgraph_cache_variants", variantsHelp,
		func() float64 { _, _, _, n := l.cache.residency(); return float64(n) }, mappedVariants)
	tierCounter := func(name, help string, v *atomic.Int64) {
		l.reg.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	tierCounter("slimgraph_catalog_tier_graph_spills_total",
		"Graphs spilled from the heap to the memory-mapped disk tier.",
		&l.catalog.tier.graphSpills)
	tierCounter("slimgraph_catalog_tier_variant_spills_total",
		"Evicted variants persisted to the disk tier.",
		&l.catalog.tier.variantSpills)
	tierCounter("slimgraph_catalog_tier_variant_faultins_total",
		"Variant-cache misses answered from a spilled snapshot instead of recomputing.",
		&l.catalog.tier.variantFaultIns)
	tierCounter("slimgraph_catalog_tier_attached_total",
		"Graphs re-attached from the data directory by the startup scan.",
		&l.catalog.tier.attached)
	l.catalog.onEngineBuild = l.reg.Counter("slimgraph_triangle_engine_builds_total",
		"Oriented triangle-engine arenas built (once per catalog entry, on first exact count).").Inc
}

// --- Catalog ---------------------------------------------------------------

// Create implements Catalog.
func (l *Local) Create(_ context.Context, name, memory, source string, g *graph.Graph, workers int) (*GraphInfo, error) {
	e, err := l.catalog.put(name, memory, source, g, l.opts.clampWorkers(workers))
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errExists) {
			code = http.StatusConflict
		}
		return nil, Errf(code, "%v", err)
	}
	return infoOf(e), nil
}

// Info implements Catalog.
func (l *Local) Info(_ context.Context, name string) (*GraphInfo, error) {
	e, err := l.lookup(name)
	if err != nil {
		return nil, err
	}
	return infoOf(e), nil
}

// List implements Catalog.
func (l *Local) List(_ context.Context) ([]GraphInfo, error) {
	out := []GraphInfo{}
	for _, e := range l.catalog.list() {
		out = append(out, *infoOf(e))
	}
	return out, nil
}

// Drop implements Catalog.
func (l *Local) Drop(_ context.Context, name string) (*DeleteResponse, error) {
	if !l.catalog.remove(name) {
		return nil, Errf(http.StatusNotFound, "no graph %q", name)
	}
	return &DeleteResponse{Deleted: name, VariantsDropped: l.cache.purgeGraph(name)}, nil
}

// acquireView pins e's resident form, mapping a failure to a backend Error
// (an entry emptied or a mapping closed under the request is a server-side
// failure, not a client one).
func acquireView(e *entry) (*view, error) {
	v, err := e.acquire()
	if err != nil {
		return nil, Errf(http.StatusInternalServerError, "%v", err)
	}
	return v, nil
}

// --- variant resolution ----------------------------------------------------

// variantOf resolves (graph, spec, seed) through the single-flight cache,
// executing the scheme on a miss — unless the disk tier holds a previously
// spilled snapshot of exactly this key, which is faulted in instead. The
// returned canonical spec is the registry round trip Spec(Parse(spec)) that
// also keys the cache, so syntactic spelling differences coalesce on one
// entry.
func (l *Local) variantOf(e *entry, spec string, seed uint64, workers int) (res *compressed, canonical string, cached bool, err error) {
	// In-spec seed/workers overrides are rejected: the canonical spec does
	// not carry them, so two different in-spec seeds would collide on one
	// cache Key. The request-level parameters are the only way to set them:
	// the seed keys the cache, the worker budget only sets the speed.
	if strings.Contains(spec, "seed=") || strings.Contains(spec, "workers=") {
		return nil, "", false, Errf(http.StatusUnprocessableEntity,
			"spec %q may not set seed or workers; use the request's seed/workers parameters", spec)
	}
	sch, err := schemes.Parse(spec, schemes.WithSeed(seed), schemes.WithWorkers(workers))
	if err != nil {
		return nil, "", false, Errf(http.StatusUnprocessableEntity, "%v", err)
	}
	canonical = schemes.Spec(sch)
	key := Key{Graph: e.name, Gen: e.gen, Spec: canonical, Seed: seed}
	res, cached, err = l.cache.get(key, func() (*compressed, error) {
		if r, ok := l.loadSpilledVariant(key); ok {
			return r, nil
		}
		// Execution latency lands on a per-scheme-family histogram (the
		// pipeline family covers multi-stage specs; /compress responses
		// carry the per-stage breakdown). Only real executions observe:
		// hits, coalesced waiters, and disk fault-ins cost no compression
		// time. The scheme reads the pinned resident form in place; the
		// three that build a graph on a new vertex set (summarize, relabel,
		// tr-collapse) decode it once and drop the decode with the Result
		// below.
		v, err := acquireView(e)
		if err != nil {
			return nil, err
		}
		defer v.release()
		start := time.Now()
		r, err := sch.Apply(v.adj)
		if err != nil {
			return nil, err
		}
		l.reg.Histogram("slimgraph_compress_seconds",
			"Compression execution latency in seconds, by scheme family.", nil,
			obs.Label{Key: "scheme", Value: sch.Name()}).Observe(time.Since(start).Seconds())
		// Only what the handlers read outlives the execution: the Result,
		// with its input, stage outputs and by-products, is dropped here.
		c := &compressed{entry: l.catalog.newEntry(r.Output, nil), elapsedMS: millis(r.Elapsed)}
		for _, st := range r.Breakdown() {
			c.stages = append(c.stages, StageTiming{Spec: st.Spec, M: st.M, ElapsedMS: millis(st.Elapsed)})
		}
		return c, nil
	})
	if err != nil {
		var se *Error
		if !errors.As(err, &se) {
			err = Errf(http.StatusUnprocessableEntity, "%v", err)
		}
	}
	return res, canonical, cached, err
}

// millis is a duration as the responses print it: milliseconds at
// microsecond resolution.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// loadSpilledVariant checks the disk tier for a previously spilled snapshot
// of exactly this cache key and attaches it, skipping the scheme execution:
// the variant serves from the mapping, with no decode pass and no heap copy,
// until the cache drops it. The restored variant reports one stage under the
// canonical spec (the per-stage breakdown does not survive a spill) and the
// attach time as its elapsed time.
func (l *Local) loadSpilledVariant(key Key) (*compressed, bool) {
	st := l.catalog.store
	if st == nil {
		return nil, false
	}
	start := time.Now()
	m, err := succinct.OpenPacked(st.variantPath(key.Graph, key))
	if err != nil {
		return nil, false
	}
	l.catalog.tier.variantFaultIns.Add(1)
	ms := millis(time.Since(start))
	return &compressed{
		entry: l.catalog.newEntry(nil, m), elapsedMS: ms,
		stages: []StageTiming{{Spec: key.Spec, M: m.M(), ElapsedMS: ms}},
	}, true
}

// spillVariant is the cache's eviction hook: a computed variant displaced by
// the LRU bound is persisted to the disk tier (unless already there) so a
// later request for the same key faults it in instead of recomputing; the
// cache closes it afterwards. A faulted-in variant has no heap form to write
// — its file already is the spill. Variants of dropped or re-created graphs
// (stale generation) are discarded: their directory is cleared or about to
// be.
func (l *Local) spillVariant(key Key, res *compressed) {
	res.mu.Lock()
	out := res.heap
	res.mu.Unlock()
	if out == nil {
		return
	}
	live := func() bool {
		e, ok := l.catalog.get(key.Graph)
		return ok && e.gen == key.Gen
	}
	if l.catalog.store.saveVariant(key.Graph, key, out, live) {
		l.catalog.tier.variantSpills.Add(1)
	}
}

// resolve pins the graph a query on e runs on: the entry's resident form —
// raw, packed, or memory-mapped, read in place, never unpacked — when p.Spec
// is empty, otherwise the cached (possibly freshly computed) variant. The
// canonical spec ("" for the original) rides along, as does the release the
// caller must invoke when done.
func (l *Local) resolve(e *entry, p QueryParams) (graph.AdjacencyEdges, string, func(), error) {
	if p.Spec == "" {
		v, err := acquireView(e)
		if err != nil {
			return nil, "", nil, err
		}
		return v.adj, "", v.release, nil
	}
	for {
		res, canonical, _, err := l.variantOf(e, p.Spec, p.Seed, l.opts.clampWorkers(p.Workers))
		if err != nil {
			return nil, "", nil, err
		}
		// A variant is pinned like an original. The pin fails only when the
		// cache dropped the variant, and closed it, between the lookup and
		// here; the next lookup faults it in anew or recomputes it.
		if v, err := res.acquire(); err == nil {
			return v.adj, canonical, v.release, nil
		}
	}
}

// target is what a row's Run reads: the resolved graph, the catalog entry it
// came from and its canonical spec ("" for the original).
type target struct {
	g    graph.AdjacencyEdges
	e    *entry
	spec string
	// arena: the triangles.Forward over an original is the entry's cached
	// one (a single node), not one built for the call (a replica keeps none).
	arena bool
}

// engine returns the triangles.Forward over t. Building the entry's arena
// may push the catalog past its budget, which is settled before the count.
func (t *target) engine(workers int) *triangles.Forward {
	if !t.arena {
		return triangles.NewForward(t.g, workers)
	}
	en := t.e.triangleEngine(t.g, workers)
	t.e.cat.enforceBudget()
	return en
}

// MarkReplica makes l a cluster replica, which keeps no triangle arena: an
// exact count over an original builds its triangles.Forward for the call.
// Call it before l serves.
func (l *Local) MarkReplica() { l.replica = true }

// lookup fetches a catalog entry or a 404 Error.
func (l *Local) lookup(name string) (*entry, error) {
	e, ok := l.catalog.get(name)
	if !ok {
		return nil, Errf(http.StatusNotFound, "no graph %q", name)
	}
	return e, nil
}

// --- QueryBackend ----------------------------------------------------------

// Compress implements QueryBackend. p.Workers must already be clamped.
func (l *Local) Compress(_ context.Context, name, spec string, p QueryParams) (*CompressResponse, error) {
	e, err := l.lookup(name)
	if err != nil {
		return nil, err
	}
	res, canonical, cached, err := l.variantOf(e, spec, p.Seed, l.opts.clampWorkers(p.Workers))
	if err != nil {
		return nil, err
	}
	// Input counts come from the catalog entry: a cached variant keeps no
	// reference to the graph it was computed from.
	reduction := 0.0
	if e.m > 0 {
		reduction = 1 - float64(res.m)/float64(e.m)
	}
	return &CompressResponse{
		Graph:         e.name,
		Spec:          canonical,
		Seed:          p.Seed,
		Cached:        cached,
		N:             res.n,
		M:             res.m,
		InputM:        e.m,
		EdgeReduction: reduction,
		ElapsedMS:     res.elapsedMS,
		Stages:        res.stages,
	}, nil
}

// Query implements QueryBackend: it resolves q's target and runs its row
// there, at this node's worker budget.
func (l *Local) Query(_ context.Context, q Query) (any, error) {
	e, err := l.lookup(q.Graph)
	if err != nil {
		return nil, err
	}
	q.Workers = l.opts.clampWorkers(q.Workers)
	g, spec, release, err := l.resolve(e, q.QueryParams)
	if err != nil {
		return nil, err
	}
	defer release()
	return q.Kernel.Run(&target{g: g, e: e, spec: spec, arena: !l.replica && q.Spec == ""}, q)
}

// The typed forwards below are Query on their rows, for benchmark/'s ladder,
// which times Local directly. Their arguments are Parse's to check: mode is
// "exact" or "approx", and Triangles needs an undirected graph.

func (l *Local) BFS(ctx context.Context, name string, root int32, p QueryParams) (*BFSResponse, error) {
	return answer[BFSResponse](l.Query(ctx, Query{Kernel: row("bfs", ""), Graph: name, Root: root, QueryParams: p}))
}

func (l *Local) PageRank(ctx context.Context, name string, k int, p QueryParams) (*PageRankResponse, error) {
	return answer[PageRankResponse](l.Query(ctx, Query{Kernel: row("pagerank", ""), Graph: name, K: k, QueryParams: p}))
}

func (l *Local) Triangles(ctx context.Context, name, mode string, prob float64, p QueryParams) (*TrianglesResponse, error) {
	return answer[TrianglesResponse](l.Query(ctx, Query{Kernel: row("triangles", mode), Graph: name, Mode: mode, P: prob, QueryParams: p}))
}

func (l *Local) Degrees(ctx context.Context, name string, p QueryParams) (*DegreesResponse, error) {
	return answer[DegreesResponse](l.Query(ctx, Query{Kernel: row("degrees", ""), Graph: name, QueryParams: p}))
}

// answer narrows a Query result to its row's response type.
func answer[R any](resp any, err error) (*R, error) {
	r, _ := resp.(*R)
	return r, err
}

// Stats implements QueryBackend.
func (l *Local) Stats(_ context.Context) (*StatsResponse, error) {
	build := obs.Build()
	resp := &StatsResponse{
		Cache:         l.cache.snapshot(),
		Graphs:        l.catalog.size(),
		UptimeSeconds: time.Since(l.start).Seconds(),
		Build:         &build,
	}
	if st := l.catalog.store; st != nil {
		raw, packed, arena, mapped := l.catalog.residentBytes()
		resp.Tier = &TierStats{
			DataDir:         st.dir,
			MemBudgetBytes:  l.catalog.budget,
			HeapBytes:       raw + packed + arena,
			MappedBytes:     mapped,
			GraphSpills:     l.catalog.tier.graphSpills.Load(),
			VariantSpills:   l.catalog.tier.variantSpills.Load(),
			VariantFaultIns: l.catalog.tier.variantFaultIns.Load(),
			Attached:        l.catalog.tier.attached.Load(),
		}
	}
	return resp, nil
}

// TopK returns the k highest-scoring vertices, score descending with vertex
// ID as the deterministic tie-break. It selects them in one pass through a
// k-entry heap whose root is the worst vertex kept so far, and sorts only
// those k: O(n log k), against O(n log n) for ordering every vertex.
func TopK(ranks []float64, k int) []RankedVertex {
	k = max(0, min(k, len(ranks)))
	// ahead reports whether vertex a ranks before vertex b.
	ahead := func(a, b int32) bool {
		if ranks[a] != ranks[b] {
			return ranks[a] > ranks[b]
		}
		return a < b
	}
	// Every kept vertex is ahead of its heap parent, so heap[0] is the worst.
	heap := make([]int32, k)
	sift := func(i int) {
		for {
			worst, c := i, 2*i+1
			if c < k && ahead(heap[worst], heap[c]) {
				worst = c
			}
			if c++; c < k && ahead(heap[worst], heap[c]) {
				worst = c
			}
			if worst == i {
				return
			}
			heap[i], heap[worst] = heap[worst], heap[i]
			i = worst
		}
	}
	for i := range heap {
		heap[i] = int32(i)
	}
	for i := k/2 - 1; i >= 0; i-- {
		sift(i)
	}
	for v := int32(k); k > 0 && int(v) < len(ranks); v++ {
		if ahead(v, heap[0]) {
			heap[0] = v
			sift(0)
		}
	}
	sort.Slice(heap, func(i, j int) bool { return ahead(heap[i], heap[j]) })
	top := make([]RankedVertex, k)
	for i, v := range heap {
		top[i] = RankedVertex{Node: v, Score: ranks[v]}
	}
	return top
}

var (
	_ Catalog      = (*Local)(nil)
	_ QueryBackend = (*Local)(nil)
)
