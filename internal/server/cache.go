package server

import (
	"container/list"
	"sync"
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

// compressed is what the cache keeps of one compression: a catalog entry
// whose heap form is the scheme's output CSR, or whose mapping is the spilled
// snapshot of one faulted back in (attached, never decoded), plus what the
// handlers read of the execution. Readers pin it with acquire and the cache
// closes it when it drops it, as the catalog does a graph. It holds no
// reference to the scheme's input, its intermediate stage outputs or its
// by-products, so a cached variant of a packed or mapped graph cannot pin a
// transient decode a CSR scheme made of it. A variant has no name,
// generation or policy of its own (its Key is its identity) and builds no
// triangle arena.
type compressed struct {
	*entry
	elapsedMS float64
	stages    []StageTiming
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
	// capacity bound (not ones purged by graph deletion) before the cache
	// closes it — the hook the local engine uses to spill evicted variants to
	// the disk tier. It is invoked outside the cache lock, after the
	// insertion that displaced the variant completes. Set before traffic;
	// never mutated after.
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
			evicted = append(evicted, v)
		}
	}
	c.mu.Unlock()
	close(fl.done)
	// Spill displaced variants outside the lock: the hook may pack and
	// write a snapshot, and other keys must not queue behind that.
	for _, v := range evicted {
		if c.onEvict != nil {
			c.onEvict(v.key, v.res)
		}
		v.res.close()
	}
	return fl.res, false, fl.err
}

// purgeGraph drops and closes every resident variant of the named graph
// (in-flight executions finish but insert under a Key whose generation no
// longer resolves). It returns the number of variants dropped.
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

// residency sums the resident variants' footprints by where they live: raw,
// the CSR bytes of computed outputs, and mapped, the servable images of
// faulted-in ones — with the variant count of each.
func (c *cache) residency() (rawBytes, mappedBytes int64, raw, mapped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*variant).res
		e.mu.Lock()
		r, _, _, m := e.footprintLocked()
		e.mu.Unlock()
		rawBytes, mappedBytes = rawBytes+r, mappedBytes+m
		if r > 0 {
			raw++
		}
		if m > 0 {
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
