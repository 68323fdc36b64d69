package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slimgraph/internal/graph"
	"slimgraph/internal/schemes"
)

// test-count is an instrumented identity scheme: every Apply bumps a counter
// and lingers long enough that concurrent requests overlap, so the tests can
// observe exactly how many times the cache really executed it. test-fail
// counts its attempts and always fails.
var (
	applyCount atomic.Int64 // test-count executions
	failCount  atomic.Int64 // test-fail execution attempts
)

func init() {
	schemes.Register(schemes.Registration{
		Name:  "test-count",
		About: "instrumented identity scheme (test only)",
		Apply: func(g graph.AdjacencyEdges, _ schemes.Args) (*schemes.Result, error) {
			applyCount.Add(1)
			time.Sleep(50 * time.Millisecond)
			return &schemes.Result{Output: graph.CSROf(g, 1)}, nil
		},
	})
	schemes.Register(schemes.Registration{
		Name:  "test-fail",
		About: "always-failing scheme (test only)",
		Apply: func(graph.AdjacencyEdges, schemes.Args) (*schemes.Result, error) {
			failCount.Add(1)
			return nil, errors.New("test-fail: injected failure")
		},
	})
}

// TestSingleFlightExactlyOnce fires N identical concurrent compress
// requests and requires the scheme to have executed exactly once.
func TestSingleFlightExactlyOnce(t *testing.T) {
	const concurrent = 12
	s, ts := newTestServer(t, Options{MaxConcurrent: concurrent, MaxWorkers: 4})
	createCommunities(t, ts.URL, "sf", 100, 1, MemoryRaw)

	applyCount.Store(0)
	body, _ := json.Marshal(CompressRequest{Spec: "test-count", Seed: 42})
	start := make(chan struct{})
	var wg sync.WaitGroup
	codes := make([]int, concurrent)
	for i := 0; i < concurrent; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			code, _, err := request("POST", ts.URL+"/v1/graphs/sf/compress", "application/json", body)
			if err != nil {
				code = -1
			}
			codes[i] = code
		}()
	}
	close(start)
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d: status %d", i, code)
		}
	}
	if got := applyCount.Load(); got != 1 {
		t.Errorf("scheme executed %d times for %d identical concurrent requests, want exactly 1",
			got, concurrent)
	}
	st := s.CacheStats()
	if st.Misses != 1 || st.Executions != 1 {
		t.Errorf("cache ran more than one flight: %+v", st)
	}
	if st.Hits+st.Coalesced != concurrent-1 {
		t.Errorf("hits %d + coalesced %d != %d: %+v", st.Hits, st.Coalesced, concurrent-1, st)
	}

	// A different seed is a different Key and must execute again.
	code, respBody := postJSON(t, ts.URL+"/v1/graphs/sf/compress", CompressRequest{Spec: "test-count", Seed: 43})
	mustStatus(t, http.StatusOK, code, respBody)
	if got := applyCount.Load(); got != 2 {
		t.Errorf("distinct seed reused the cached variant (executions %d, want 2)", got)
	}

	// So is a different worker budget: some schemes are only deterministic
	// at workers=1, so budgets must never share a variant.
	code, respBody = postJSON(t, ts.URL+"/v1/graphs/sf/compress",
		CompressRequest{Spec: "test-count", Seed: 42, Workers: 2})
	mustStatus(t, http.StatusOK, code, respBody)
	if got := applyCount.Load(); got != 3 {
		t.Errorf("distinct worker budget reused the cached variant (executions %d, want 3)", got)
	}
}

// TestFailureNotCachedNegatively checks a failing spec is reported to every
// waiter of its flight but never cached: later requests re-execute and can
// succeed once the failure clears.
func TestFailureNotCachedNegatively(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrent: 8})
	createCommunities(t, ts.URL, "nf", 100, 1, MemoryRaw)

	failCount.Store(0)
	body, _ := json.Marshal(CompressRequest{Spec: "test-fail", Seed: 1})
	for i := 0; i < 3; i++ {
		code, resp := do(t, "POST", ts.URL+"/v1/graphs/nf/compress", "application/json", body)
		mustStatus(t, http.StatusUnprocessableEntity, code, resp)
	}
	if got := failCount.Load(); got != 3 {
		t.Errorf("failing spec executed %d times over 3 sequential requests, want 3 (no negative caching)", got)
	}
	st := s.CacheStats()
	if st.Failures != 3 {
		t.Errorf("failures = %d, want 3: %+v", st.Failures, st)
	}
	if st.Entries != 0 {
		t.Errorf("a failed execution left %d cache entries: %+v", st.Entries, st)
	}

	// The failure did not poison the graph: a valid spec still computes.
	code, resp := postJSON(t, ts.URL+"/v1/graphs/nf/compress", CompressRequest{Spec: "uniform:p=0.5", Seed: 1})
	mustStatus(t, http.StatusOK, code, resp)
}

// TestCacheLRUAndPurge unit-tests the cache: LRU eviction order and
// per-graph purging.
func TestCacheLRUAndPurge(t *testing.T) {
	c := newCache(2)
	mk := func(spec string) Key { return Key{Graph: "g", Gen: 1, Spec: spec} }
	compute := func() (*compressed, error) { return &compressed{entry: &entry{}}, nil }

	for _, spec := range []string{"a", "b"} {
		if _, cached, err := c.get(mk(spec), compute); err != nil || cached {
			t.Fatalf("first get of %q: cached=%v err=%v", spec, cached, err)
		}
	}
	// Touch "a" so "b" is the LRU victim.
	if _, cached, _ := c.get(mk("a"), compute); !cached {
		t.Fatal("expected hit on a")
	}
	if _, cached, _ := c.get(mk("c"), compute); cached {
		t.Fatal("c cannot be cached yet")
	}
	st := c.snapshot()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("after overflow: %+v", st)
	}
	if _, cached, _ := c.get(mk("b"), compute); cached {
		t.Error("b should have been the eviction victim")
	}
	if dropped := c.purgeGraph("g"); dropped != 2 {
		t.Errorf("purge dropped %d, want 2", dropped)
	}
	if st := c.snapshot(); st.Entries != 0 {
		t.Errorf("entries after purge: %+v", st)
	}
}
