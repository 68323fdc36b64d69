package server

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/succinct"
	"slimgraph/internal/triangles"
)

// Memory policies for catalog entries.
const (
	// MemoryRaw keeps the raw CSR resident: fastest to query and to
	// compress from.
	MemoryRaw = "raw"
	// MemoryPacked keeps only the succinct PackedGraph resident
	// (typically 3-5x smaller). Every query over the original — BFS,
	// PageRank, triangles, degrees, and the original side of compare —
	// runs on the packed form in place, and so does computing a variant
	// with any scheme but the three that build a graph on a new vertex set
	// (summarize, relabel, tr-collapse), which decode a transient copy
	// (graph.CSROf), dropped once the variant is cached. Answers are
	// byte-identical to MemoryRaw.
	MemoryPacked = "packed"
)

// Residency tiers a catalog entry can be in. The memory policy (MemoryRaw /
// MemoryPacked) is what the client asked for; the residency is where the
// bytes actually live right now — the memory-budget spiller moves entries
// from the heap to the mapping of their snapshot, never back.
const (
	// ResidencyRaw: the raw CSR is on the heap.
	ResidencyRaw = "raw"
	// ResidencyPacked: the succinct packed form is on the heap.
	ResidencyPacked = "packed"
	// ResidencyMapped: the servable snapshot is memory-mapped from the data
	// directory; queries read the mapping in place and the heap holds
	// nothing but the directory views.
	ResidencyMapped = "mapped"
)

// entry is one named graph in the catalog, or one cached variant (compressed
// embeds it). The identity fields (name, generation, shape, policy,
// provenance) are immutable after insertion; the residency fields below mu
// are not — the spiller moves the graph from the heap to the disk tier while
// queries hold views pinned via acquire, and close empties them.
type entry struct {
	name   string
	memory string
	gen    uint64 // catalog generation, part of every cache Key
	source string

	n, m     int
	directed bool
	weighted bool

	cat *catalog // owning catalog: budget, store, counters, hooks

	mu sync.Mutex
	// heap is the heap-resident form: a *graph.Graph under MemoryRaw (and
	// for a computed variant), a *succinct.PackedGraph under MemoryPacked,
	// nil once spilled (and for graphs the startup scan attached).
	heap graph.AdjacencyEdges
	// mapped is the mapping of the write-through snapshot at
	// store.graphPath(name), opened by attach or by the first spill — or,
	// for a variant faulted back in, of its spilled snapshot.
	mapped *succinct.Mapped
	// Triangle arena: the count-only forward CSR (offsets, lists, hub rows
	// and their index, hub table, work prefix; no edge IDs) is a pure
	// function of the graph, built lazily on the first exact triangle query
	// and reused until the spiller reclaims it (a rebuild over any tier is
	// bit-identical). Its arrays hold at most 4(n+1) + 24⌈n/64⌉ + 8 + 4H +
	// 4m bytes, H ≤ 512 the hubs: lists are 16-bit when n ≤ 2¹⁶, only hubs
	// and vertices with a hub arc store a row, and hub rows are chosen only
	// where they take no more bytes than the 32-bit list entries they
	// replace. SizeBytes counts the allocator's rounding too.
	engine  *triangles.Forward
	lastUse int64 // catalog clock tick of the last acquire, for LRU spill
}

// view is one request's pinned access to an entry's resident form. It keeps
// whatever tier it captured alive for the request's duration: heap forms by
// ordinary reachability, a mapping by its reference count — which is what
// lets DELETE unmap only after the last in-flight reader drains. release
// must be called when the request is done (releasing a heap view is a
// no-op).
type view struct {
	// adj is the pinned resident form: the raw CSR, or the packed/mapped
	// form read in place. Query handlers and scheme executions consume this
	// (never an unpack), which is what keeps packed and mapped entries
	// serving in place on every query path.
	adj graph.AdjacencyEdges
	rel func()
}

func (v *view) release() {
	if v.rel != nil {
		v.rel()
	}
}

// triangleEngine returns the entry's triangle arena, building it over a —
// the entry's resident form, pinned by the caller — on first use (or after a
// spill reclaimed the previous arena). Its structure is deterministic and
// identical across tiers and worker counts, so the cached build is shared
// and only the counting worker budget varies per request.
func (e *entry) triangleEngine(a graph.AdjacencyEdges, workers int) *triangles.Forward {
	e.mu.Lock()
	en := e.engine
	e.mu.Unlock()
	if en == nil {
		// Build outside the entry lock: the arena can take a while on a big
		// graph and the input is pinned and immutable. Two racing builds
		// produce identical structures; the first to publish wins and the
		// loser's arena is garbage.
		built := triangles.NewForward(a, workers)
		e.mu.Lock()
		if e.engine == nil {
			e.engine = built
			if e.cat.onEngineBuild != nil {
				e.cat.onEngineBuild()
			}
		}
		en = e.engine
		e.mu.Unlock()
	}
	return en.WithWorkers(workers)
}

// acquire pins the entry's current resident form. The returned view must be
// released.
func (e *entry) acquire() (*view, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastUse = e.cat.clock.Add(1)
	switch {
	case e.heap != nil:
		return &view{adj: e.heap}, nil
	case e.mapped != nil:
		rel, err := e.mapped.Acquire()
		if err != nil {
			return nil, err
		}
		return &view{adj: e.mapped.PackedGraph, rel: rel}, nil
	}
	// A request that looked the entry up just before a DELETE emptied it.
	return nil, fmt.Errorf("graph %q has no resident form", e.name)
}

// close empties the entry: heap forms are left to the collector once
// in-flight readers drop them, and the mapping is closed, its munmap
// deferred until the last reader releases. Later acquires fail.
func (e *entry) close() {
	e.mu.Lock()
	m := e.mapped
	e.heap, e.mapped, e.engine = nil, nil, nil
	e.mu.Unlock()
	if m != nil {
		_ = m.Close()
	}
}

// footprintLocked estimates the entry's memory split by where it lives: raw
// CSR bytes, succinct packed bytes and triangle-engine arena bytes (all
// heap), and memory-mapped servable bytes (page cache, not heap). Callers
// hold e.mu.
func (e *entry) footprintLocked() (raw, packed, arena, mapped int64) {
	switch h := e.heap.(type) {
	case *graph.Graph:
		raw = graph.CSRBytes(h.N(), h.NumArcs(), h.M(), h.Directed(), h.Weighted())
	case *succinct.PackedGraph:
		packed = h.SizeBits() / 8
	}
	if e.engine != nil {
		arena = e.engine.SizeBytes()
	}
	if e.mapped != nil {
		mapped = e.mapped.MappedBytes()
	}
	return raw, packed, arena, mapped
}

// heapBytesLocked is the part of the footprint the memory budget bounds.
func (e *entry) heapBytesLocked() int64 {
	raw, packed, arena, _ := e.footprintLocked()
	return raw + packed + arena
}

// residency names the entry's current tier ("" once DELETE emptied it).
func (e *entry) residency() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch e.heap.(type) {
	case *graph.Graph:
		return ResidencyRaw
	case *succinct.PackedGraph:
		return ResidencyPacked
	}
	if e.mapped != nil {
		return ResidencyMapped
	}
	return ""
}

// spill moves the entry to the disk tier: its write-through snapshot is
// mapped (unless attach or an earlier spill already did) and the heap form
// and the triangle arena are dropped. In-flight queries that acquired the
// heap form before the spill keep it alive until they finish; new acquires
// get the mapping. Returns the heap bytes freed (0 when there was nothing to
// spill or the snapshot would not map). Only dropping a heap form counts as
// a graph spill: on an entry already mapped, spill just reclaims the arena.
func (e *entry) spill(store *store) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	freed := e.heapBytesLocked()
	if freed == 0 {
		return 0
	}
	if e.mapped == nil {
		m, err := succinct.OpenPacked(store.graphPath(e.name))
		if err != nil {
			return 0
		}
		e.mapped = m
	}
	if e.heap != nil {
		e.cat.tier.graphSpills.Add(1)
	}
	e.heap, e.engine = nil, nil
	return freed
}

// errExists reports a name collision on put; the HTTP layer maps it to 409.
var errExists = errors.New("already exists")

// catalog is the set of named graphs across both tiers: heap-resident
// (raw or packed) and disk-resident (servable snapshots under the store's
// data directory, served memory-mapped).
type catalog struct {
	mu     sync.RWMutex
	graphs map[string]*entry
	// pending holds the names a put is writing through or a remove is
	// deleting the files of: a create of one of them is refused, so no two
	// writers ever share a name's files.
	pending map[string]bool
	nextGen uint64

	// store is the disk tier; nil disables persistence and spilling (the
	// pre-tier in-memory-only behavior).
	store *store
	// budget caps the catalog's heap bytes; 0 means unbounded. Enforcement
	// spills least-recently-used entries to the store, so a budget without
	// a store is ignored.
	budget int64
	tier   tierCounters
	clock  atomic.Int64 // acquire ticks, the LRU axis for spilling

	// onEngineBuild is invoked once per triangle-arena build; set at engine
	// construction, before any traffic.
	onEngineBuild func()
}

func newCatalog() *catalog {
	return &catalog{graphs: map[string]*entry{}, pending: map[string]bool{}}
}

func validName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("graph name must be 1-128 characters")
	}
	if strings.ContainsAny(name, "/ \t\n") {
		return fmt.Errorf("graph name %q may not contain '/' or whitespace", name)
	}
	return nil
}

// put stores g under name with the given memory policy, failing if the name
// is taken or reserved by a put or a remove in flight. The graph is packed
// (and the raw CSR released) under MemoryPacked. With a disk tier attached,
// the servable snapshot is written through before the entry is published —
// the warm-restart guarantee — and the memory budget is enforced
// afterwards.
func (c *catalog) put(name, memory, source string, g *graph.Graph, workers int) (*entry, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	var heap graph.AdjacencyEdges = g
	var pg *succinct.PackedGraph
	switch memory {
	case MemoryRaw, "":
		memory = MemoryRaw
	case MemoryPacked:
		pg = succinct.Pack(g, workers)
		heap = pg
	default:
		return nil, fmt.Errorf("unknown memory policy %q (want %s or %s)", memory, MemoryRaw, MemoryPacked)
	}
	e := c.newEntry(heap, nil)
	e.name, e.memory, e.source = name, memory, source
	// The name is reserved before the (possibly expensive) write-through:
	// two creates of one name must not write its files at once.
	c.mu.Lock()
	if _, taken := c.graphs[name]; taken || c.pending[name] {
		c.mu.Unlock()
		return nil, fmt.Errorf("graph %q: %w (DELETE it first)", name, errExists)
	}
	c.pending[name] = true
	c.mu.Unlock()
	if c.store != nil {
		if pg == nil {
			pg = succinct.Pack(g, workers)
		}
		if err := c.store.saveGraph(name, pg, storeMeta{Memory: memory, Source: source}); err != nil {
			c.release(name)
			return nil, err
		}
		// Spilled variants belong to the graph that spilled them: whatever
		// a predecessor under this name left behind must not fault in here.
		c.store.clearVariants(name)
	}
	c.mu.Lock()
	delete(c.pending, name)
	c.nextGen++
	e.gen = c.nextGen
	e.lastUse = c.clock.Add(1)
	c.graphs[name] = e
	c.mu.Unlock()
	c.enforceBudget()
	return e, nil
}

// attach registers a graph whose servable snapshot already exists on disk —
// the startup-scan path. The snapshot is memory-mapped immediately (the
// mapping costs directory validation only, no decode pass and no heap copy
// of the payload), so the first query after a restart serves straight from
// the page cache. Its spilled variants stay on disk to fault in.
func (c *catalog) attach(name string) error {
	m, err := succinct.OpenPacked(c.store.graphPath(name))
	if err != nil {
		return err
	}
	meta := c.store.loadMeta(name)
	e := c.newEntry(nil, m)
	e.name, e.memory, e.source = name, meta.Memory, meta.Source
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, taken := c.graphs[name]; taken {
		m.Close()
		return fmt.Errorf("graph %q: %w", name, errExists)
	}
	c.nextGen++
	e.gen = c.nextGen
	e.lastUse = c.clock.Add(1)
	c.graphs[name] = e
	c.tier.attached.Add(1)
	return nil
}

// newEntry returns an entry of this catalog resident as heap or, when heap
// is nil, as mapped, with its shape read from that form — a graph's or a
// cached variant's. Callers set the identity fields.
func (c *catalog) newEntry(heap graph.AdjacencyEdges, mapped *succinct.Mapped) *entry {
	e := &entry{cat: c, heap: heap, mapped: mapped}
	form := heap
	if form == nil {
		form = mapped
	}
	e.n, e.m, e.directed, e.weighted = form.N(), form.M(), form.Directed(), form.Weighted()
	return e
}

func (c *catalog) get(name string) (*entry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.graphs[name]
	return e, ok
}

// remove drops the entry from the catalog, closes it (the munmap deferred
// until the last in-flight reader drains), and deletes its disk-tier files,
// holding the name reserved until they are gone.
func (c *catalog) remove(name string) bool {
	c.mu.Lock()
	e, ok := c.graphs[name]
	if ok {
		delete(c.graphs, name)
		c.pending[name] = true
	}
	c.mu.Unlock()
	if !ok {
		return false
	}
	e.close()
	if c.store != nil {
		c.store.removeGraph(name)
	}
	c.release(name)
	return true
}

// release frees a name put or remove reserved.
func (c *catalog) release(name string) {
	c.mu.Lock()
	delete(c.pending, name)
	c.mu.Unlock()
}

// list returns the entries sorted by name.
func (c *catalog) list() []*entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*entry, 0, len(c.graphs))
	for _, e := range c.graphs {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (c *catalog) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.graphs)
}

// enforceBudget spills least-recently-used heap-resident entries to the
// disk tier until the catalog's heap bytes fit the budget. Without a budget
// or a store it is a no-op. Entries whose spill fails (disk full) are
// skipped this round rather than retried in a tight loop.
func (c *catalog) enforceBudget() {
	if c.budget <= 0 || c.store == nil {
		return
	}
	type cand struct {
		e       *entry
		lastUse int64
		bytes   int64
	}
	var total int64
	var cands []cand
	for _, e := range c.list() {
		e.mu.Lock()
		b := e.heapBytesLocked()
		lu := e.lastUse
		e.mu.Unlock()
		total += b
		if b > 0 {
			cands = append(cands, cand{e, lu, b})
		}
	}
	if total <= c.budget {
		return
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].lastUse < cands[j].lastUse })
	for _, cd := range cands {
		if total <= c.budget {
			return
		}
		total -= cd.e.spill(c.store)
	}
}

// residentBytes sums the entries' footprints — the residency gauges that
// make both the MemoryPacked policy's savings and the disk tier's offload
// visible at runtime.
func (c *catalog) residentBytes() (raw, packed, arena, mapped int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, e := range c.graphs {
		e.mu.Lock()
		r, p, a, m := e.footprintLocked()
		e.mu.Unlock()
		raw, packed, arena, mapped = raw+r, packed+p, arena+a, mapped+m
	}
	return raw, packed, arena, mapped
}

// Generate builds a graph from the generator request (gen.Generate), its
// zero sizes read as the defaults. Every generator is deterministic per
// seed, which is what lets a cluster coordinator generate once and
// replicate identical bytes to every shard.
func Generate(kind string, scale, ef, n int, seed uint64, weighted bool) (*graph.Graph, string, error) {
	if ef <= 0 {
		ef = 8
	}
	if n <= 0 {
		n = 10000
	}
	if scale <= 0 {
		scale = 12
	}
	return gen.Generate(kind, scale, ef, n, seed, weighted)
}
