package server

import (
	"container/list"
	"sync"

	"slimgraph/internal/graph"
	"slimgraph/internal/succinct"
)

// Key identifies one compressed variant in the cache: the graph's identity
// (name plus the catalog generation, so a re-uploaded graph never aliases a
// stale variant), the canonical scheme spec — the registry's
// Spec(Parse(spec)) round-trip fixpoint — the seed, and the worker budget.
// Two requests that spell the same scheme differently ("uniform:p=0.5" vs
// "uniform: p=0.5") land on the same Key. Workers are part of the Key
// because the schemes whose kernel instances share state (listed once, on
// Scheme.Apply in internal/schemes) are seed-deterministic only at
// workers=1: a budget>1 execution must never be served to a default
// deterministic request.
type Key struct {
	Graph   string
	Gen     uint64
	Spec    string
	Seed    uint64
	Workers int
}

// CacheStats is a snapshot of the variant cache's counters.
type CacheStats struct {
	// Hits counts requests answered from a resident variant.
	Hits int64 `json:"hits"`
	// Coalesced counts requests that joined an in-flight execution of the
	// same Key instead of starting their own.
	Coalesced int64 `json:"coalesced"`
	// Misses counts requests that led an execution (successful or not).
	Misses int64 `json:"misses"`
	// Executions counts scheme executions that completed successfully.
	Executions int64 `json:"executions"`
	// Failures counts scheme executions that returned an error. Failures
	// are never cached: the next request for the same Key re-executes.
	Failures int64 `json:"failures"`
	// Evictions counts variants dropped by the LRU bound.
	Evictions int64 `json:"evictions"`
	// Entries and Capacity describe the current occupancy.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// compressed is what the cache keeps of one compression: exactly what the
// handlers read of it, computed once where the scheme ran (or its spilled
// snapshot was faulted in). It holds no reference to the scheme's input,
// its intermediate stage outputs or its by-products, so a cached variant of
// a packed or mapped graph cannot pin a transient decode a CSR scheme made
// of it.
type compressed struct {
	// output is the variant: the *graph.Graph the scheme produced, or, for a
	// variant faulted back in from the disk tier, the *succinct.Mapped of its
	// spilled servable snapshot — attached, never decoded. Readers pin a
	// mapping through pin; the cache closes it when it drops the variant.
	output    graph.AdjacencyEdges
	elapsedMS float64
	stages    []StageTiming
}

// pin returns the output for one reader and the release the reader must
// call when done. A mapped output is pinned by its reference count, so an
// eviction or a purge that closes it mid-query defers the munmap; pin fails
// once the mapping is closed (the variant left the cache under the caller).
func (c *compressed) pin() (graph.AdjacencyEdges, func(), error) {
	m, ok := c.output.(*succinct.Mapped)
	if !ok {
		return c.output, func() {}, nil
	}
	release, err := m.Acquire()
	if err != nil {
		return nil, nil, err
	}
	return m.PackedGraph, release, nil
}

// close releases what the cache held of a dropped variant: a mapping is
// unmapped once its readers drain; a heap output is left to the collector.
func (c *compressed) close() {
	if m, ok := c.output.(*succinct.Mapped); ok {
		_ = m.Close()
	}
}

// variant is one cache slot.
type variant struct {
	key Key
	res *compressed
}

// call is one in-flight execution that later arrivals wait on.
type call struct {
	done chan struct{}
	res  *compressed
	err  error
}

// cache is the compressed-variant cache: an LRU over Keys with
// single-flight deduplication, so N concurrent identical requests run the
// scheme exactly once while distinct Keys execute concurrently. Errors are
// returned to every waiter of the failing flight but never cached, so a
// transient failure does not poison the Key.
type cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used; values are *variant
	entries  map[Key]*list.Element
	calls    map[Key]*call
	stats    CacheStats
	// onEvict, when set, receives every variant displaced by the LRU
	// capacity bound (not ones purged by graph deletion) — the hook the
	// local engine uses to spill evicted variants to the disk tier, or to
	// close the mapping of one that was faulted in from there. It is
	// invoked outside the cache lock, after the insertion that displaced
	// the variant completes. Set before traffic; never mutated after.
	onEvict func(key Key, res *compressed)
}

func newCache(capacity int) *cache {
	if capacity < 1 {
		capacity = 1
	}
	return &cache{
		capacity: capacity,
		ll:       list.New(),
		entries:  map[Key]*list.Element{},
		calls:    map[Key]*call{},
	}
}

// get returns the variant for key, running compute at most once across all
// concurrent callers of the same key. cached reports whether this caller
// avoided an execution of its own (resident hit or coalesced flight).
func (c *cache) get(key Key, compute func() (*compressed, error)) (res *compressed, cached bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		res := el.Value.(*variant).res
		c.mu.Unlock()
		return res, true, nil
	}
	if fl, ok := c.calls[key]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		<-fl.done
		return fl.res, true, fl.err
	}
	fl := &call{done: make(chan struct{})}
	c.calls[key] = fl
	c.stats.Misses++
	c.mu.Unlock()

	fl.res, fl.err = compute()

	var evicted []*variant
	c.mu.Lock()
	delete(c.calls, key)
	if fl.err != nil {
		c.stats.Failures++
	} else {
		c.stats.Executions++
		c.entries[key] = c.ll.PushFront(&variant{key: key, res: fl.res})
		for c.ll.Len() > c.capacity {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			v := oldest.Value.(*variant)
			delete(c.entries, v.key)
			c.stats.Evictions++
			if c.onEvict != nil {
				evicted = append(evicted, v)
			}
		}
	}
	c.mu.Unlock()
	close(fl.done)
	// Spill displaced variants outside the lock: the hook may pack and
	// write a snapshot, and other keys must not queue behind that.
	for _, v := range evicted {
		c.onEvict(v.key, v.res)
	}
	return fl.res, false, fl.err
}

// purgeGraph drops every resident variant of the named graph, closing the
// mappings among them (in-flight executions finish but insert under a Key
// whose generation no longer resolves). It returns the number of variants
// dropped.
func (c *cache) purgeGraph(name string) int {
	c.mu.Lock()
	var dropped []*variant
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		v := el.Value.(*variant)
		if v.key.Graph == name {
			c.ll.Remove(el)
			delete(c.entries, v.key)
			dropped = append(dropped, v)
		}
	}
	c.mu.Unlock()
	for _, v := range dropped {
		v.res.close()
	}
	return len(dropped)
}

// purgeKey drops one resident variant, closing its mapping if it has one,
// and reports whether it was there. An in-flight execution of the key is
// untouched: it completes and inserts, which is why callers that need "gone
// for sure" purge after joining or failing the flight, never concurrently
// with one they started.
func (c *cache) purgeKey(key Key) bool {
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.ll.Remove(el)
		delete(c.entries, key)
	}
	c.mu.Unlock()
	if ok {
		el.Value.(*variant).res.close()
	}
	return ok
}

// residency sums the resident variants by where they live: raw, the CSR
// bytes of computed outputs (rawCSRBytes), and mapped, the servable images
// of faulted-in ones — with the variant count of each.
func (c *cache) residency() (rawBytes, mappedBytes int64, raw, mapped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		switch out := el.Value.(*variant).res.output.(type) {
		case *graph.Graph:
			rawBytes += rawCSRBytes(out)
			raw++
		case *succinct.Mapped:
			mappedBytes += out.MappedBytes()
			mapped++
		}
	}
	return rawBytes, mappedBytes, raw, mapped
}

// snapshot returns the current counters.
func (c *cache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Capacity = c.capacity
	return s
}
