package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"slimgraph/internal/resilience"
	"slimgraph/internal/server"
)

// queryURLs is the mixed read workload the fault-tolerance tests replay:
// every deterministic query endpoint, over the original graph and a
// compressed variant. All are byte-identical to a single node at workers=1,
// which is the property that must survive shard loss and injected faults.
func queryURLs() []string {
	base := []string{
		"/v1/graphs/g/bfs?root=0&seed=42&workers=1",
		"/v1/graphs/g/pagerank?k=10&seed=42&workers=1",
		"/v1/graphs/g/triangles?seed=42&workers=1",
		"/v1/graphs/g/triangles?mode=approx&p=0.5&seed=42&workers=1",
		"/v1/graphs/g/degrees?seed=42&workers=1",
	}
	out := append([]string(nil), base...)
	for _, u := range base {
		out = append(out, u+"&spec=uniform:p=0.5")
	}
	out = append(out, "/v1/graphs/g/compare?seed=42&workers=1&spec=uniform:p=0.5")
	return out
}

// expectedBodies records the fault-free ground truth for queryURLs from a
// single-node server over the same graph.
func expectedBodies(t *testing.T, ts *httptest.Server) map[string][]byte {
	t.Helper()
	want := map[string][]byte{}
	for _, u := range queryURLs() {
		code, body := get(t, ts.URL+u)
		if code != http.StatusOK {
			t.Fatalf("single node %s: status %d: %s", u, code, body)
		}
		want[u] = body
	}
	return want
}

// TestClusterKillShardFailover is the kill-a-shard acceptance test: one of
// three shards dies mid-workload, every query keeps answering bytes
// identical to a single node (the survivors re-partition the work), the
// dead shard's breaker opens, a DELETE while it is down still succeeds and
// owes it a replayed unload, and after a restart the breaker closes and the
// pending repairs drain — leaving the recovered replica consistent.
func TestClusterKillShardFailover(t *testing.T) {
	g := testGraph(t)
	single := mustServer(t, server.Options{MaxWorkers: 8})
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	if err := single.AddGraph("g", "", "test", g.Clone(), 1); err != nil {
		t.Fatal(err)
	}
	want := expectedBodies(t, sts)

	lc, cts := startLocal(t, 3, server.Options{MaxWorkers: 8}, Options{
		ShardTimeout:    2 * time.Second,
		BreakerCooldown: 200 * time.Millisecond,
		ProbeInterval:   50 * time.Millisecond,
	})
	if _, err := lc.Coordinator.Create(t.Context(), "g", "", "test", g.Clone(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Coordinator.Create(t.Context(), "doomed", "", "test", testGraph(t).Clone(), 1); err != nil {
		t.Fatal(err)
	}

	// Warm pass with all three shards up: pins the healthy baseline (and
	// replicates the compressed variant everywhere).
	for _, u := range queryURLs() {
		code, body := get(t, cts.URL+u)
		if code != http.StatusOK || !bytes.Equal(body, want[u]) {
			t.Fatalf("healthy cluster %s: status %d: %s", u, code, body)
		}
	}

	if err := lc.KillShard(2); err != nil {
		t.Fatal(err)
	}

	// Degraded workload: every response must stay 200 with the exact same
	// bytes — the first requests pay retries while the breaker is still
	// counting, later ones route around the dead shard entirely.
	for round := 0; round < 3; round++ {
		for _, u := range queryURLs() {
			code, body := get(t, cts.URL+u)
			if code != http.StatusOK {
				t.Fatalf("degraded round %d %s: status %d: %s", round, u, code, body)
			}
			if !bytes.Equal(body, want[u]) {
				t.Fatalf("degraded round %d %s: body diverged:\n got: %s\nwant: %s", round, u, body, want[u])
			}
		}
	}
	if st := lc.Coordinator.BreakerState(2); st != resilience.BreakerOpen {
		t.Fatalf("after degraded workload, shard 2 breaker = %v, want open", st)
	}

	// Mutations while a shard is down succeed against the survivors and are
	// owed to the dead one. The compress takes the quorum-write path (2 of 3
	// live is a majority); the DELETE queues an unload.
	if code, body := postAs(t, cts.URL+"/v1/graphs/g/compress", server.CompressRequest{Spec: "spanner", Seed: 42, Workers: 1}); code != http.StatusOK {
		t.Fatalf("quorum compress: status %d: %s", code, body)
	}
	if code, body := do(t, "DELETE", cts.URL+"/v1/graphs/doomed", "", nil); code != http.StatusOK {
		t.Fatalf("DELETE with a dead shard: status %d: %s", code, body)
	}
	if n := lc.Coordinator.PendingRepairs(2); n == 0 {
		t.Fatal("expected pending repairs queued for the dead shard")
	}

	if err := lc.RestartShard(2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if lc.Coordinator.BreakerState(2) == resilience.BreakerClosed && lc.Coordinator.PendingRepairs(2) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard 2 did not recover: breaker=%v pending=%d",
				lc.Coordinator.BreakerState(2), lc.Coordinator.PendingRepairs(2))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The replayed repairs left the recovered replica consistent: the
	// deleted graph is gone and the quorum-written variant is resident.
	if code, body := get(t, lc.Addr(2)+"/v1/graphs/doomed"); code != http.StatusNotFound {
		t.Errorf("recovered shard still has dropped graph: status %d: %s", code, body)
	}
	if code, body := postAs(t, lc.Addr(2)+"/v1/graphs/g/compress", server.CompressRequest{Spec: "spanner", Seed: 42, Workers: 1}); code != http.StatusOK {
		t.Errorf("recovered shard compress: status %d: %s", code, body)
	} else if !bytes.Contains(body, []byte(`"cached":true`)) {
		t.Errorf("quorum-written variant not re-replicated to recovered shard: %s", body)
	}

	// And it serves traffic again, bytes unchanged.
	for _, u := range queryURLs() {
		code, body := get(t, cts.URL+u)
		if code != http.StatusOK || !bytes.Equal(body, want[u]) {
			t.Errorf("recovered cluster %s: status %d", u, code)
		}
	}
}

// TestCompressSurvivesFailedProbe pins the quorum write against a shard that
// a half-open breaker admitted and that then fails during the write: the two
// shards that answered are a majority, so the client gets their answer — the
// one a single node gives — and the failed probe is owed a compress repair,
// exactly as if its breaker had still been open when the write began.
func TestCompressSurvivesFailedProbe(t *testing.T) {
	g := testGraph(t)
	single := mustServer(t, server.Options{MaxWorkers: 4})
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	if err := single.AddGraph("g", "", "test", g.Clone(), 1); err != nil {
		t.Fatal(err)
	}

	// The rule's host is filled in once the shard has a port; nothing has
	// been sent by then.
	down := &resilience.FaultRule{Path: "/compress", Action: resilience.FaultStatus, Status: http.StatusServiceUnavailable}
	inj := resilience.NewInjector(down)
	lc, cts := startLocal(t, 3, server.Options{MaxWorkers: 4}, Options{
		Client:           &http.Client{Transport: inj.RoundTripper(http.DefaultTransport)},
		BreakerThreshold: 1,
		// Any later look at an open breaker finds the cooldown over, so the
		// next write admits the shard half-open; no prober and no other
		// traffic means nothing else moves the breaker.
		BreakerCooldown: time.Nanosecond,
	})
	down.Host = strings.TrimPrefix(lc.Addr(2), "http://")
	if _, err := lc.Coordinator.Create(t.Context(), "g", "", "test", g.Clone(), 1); err != nil {
		t.Fatal(err)
	}
	lc.Coordinator.breakers[2].RecordFailure()
	if st := lc.Coordinator.BreakerState(2); st != resilience.BreakerOpen {
		t.Fatalf("shard 2 breaker = %v, want open", st)
	}

	req := server.CompressRequest{Spec: "uniform:p=0.5", Seed: 42, Workers: 1}
	normalized := func(url string) server.CompressResponse {
		t.Helper()
		code, body := postAs(t, url+"/v1/graphs/g/compress", req)
		if code != http.StatusOK {
			t.Fatalf("compress via %s: status %d: %s", url, code, body)
		}
		var cr server.CompressResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		cr.ElapsedMS = 0 // wall-clock, the only fields that may differ
		for i := range cr.Stages {
			cr.Stages[i].ElapsedMS = 0
		}
		return cr
	}
	want, got := normalized(sts.URL), normalized(cts.URL)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("quorum write answered %+v, single node %+v", got, want)
	}
	if down.Fired() == 0 {
		t.Fatal("the fault rule never fired: shard 2 was not written to")
	}
	if st := lc.Coordinator.BreakerState(2); st != resilience.BreakerOpen {
		t.Errorf("after the failed probe, shard 2 breaker = %v, want open", st)
	}
	if n := lc.Coordinator.PendingRepairs(2); n != 1 {
		t.Errorf("shard 2 is owed %d repairs, want the one compress", n)
	}
	for i := 0; i < 2; i++ {
		if cs := lc.Shard(i).Server().CacheStats(); cs.Entries != 1 {
			t.Errorf("shard %d holds %d variants after the quorum write, want 1", i, cs.Entries)
		}
	}
}

// TestClusterChaosSoak hammers a 3-shard cluster with a concurrent mixed
// workload while a seeded fault injector drops, delays, 503s, and truncates
// coordinator→shard sub-requests. Every client-visible response must be a
// 200 with bytes identical to the fault-free single-node twin, and the
// shard caches must stay exact: no failed executions, misses equal to
// executions, at most one execution per variant per shard — retries and
// failovers never double-run a scheme.
func TestClusterChaosSoak(t *testing.T) {
	g := testGraph(t)
	single := mustServer(t, server.Options{MaxWorkers: 8})
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	if err := single.AddGraph("g", "", "test", g.Clone(), 1); err != nil {
		t.Fatal(err)
	}
	want := expectedBodies(t, sts)

	// Finite fault quotas (times=) keep the soak honest without making it
	// flaky: well over a hundred injected faults land somewhere in the run,
	// but no single request can draw enough of them to exhaust its retry
	// budget and every quota empties before the workload does.
	//
	// The routed rules aim torn replies and 503s at the two routes that
	// carry a request vector and run many rounds per query — where a frame
	// cut short or a half-failed round would be easiest to mistake for an
	// answer. They start once the burst from the catch-all rules has mostly
	// drained and fire sparsely, so they land mid-query all through the run
	// without stacking three failures on one sub-request often enough to
	// cost the cluster a quorum.
	routed := []*resilience.FaultRule{
		{Path: "/part/bfs", After: 100, P: 0.05, Seed: 55, Times: 15, Action: resilience.FaultTruncate},
		{Path: "/part/bfs", After: 100, P: 0.05, Seed: 66, Times: 15, Action: resilience.FaultStatus, Status: http.StatusServiceUnavailable},
		{Path: "/part/pr-pull", After: 400, P: 0.02, Seed: 77, Times: 15, Action: resilience.FaultTruncate},
		{Path: "/part/pr-pull", After: 400, P: 0.02, Seed: 88, Times: 15, Action: resilience.FaultStatus, Status: http.StatusServiceUnavailable},
	}
	inj := resilience.NewInjector(append([]*resilience.FaultRule{
		{Path: "/part/", P: 0.12, Seed: 11, Times: 40, Action: resilience.FaultDrop},
		{Path: "/part/", P: 0.08, Seed: 22, Times: 30, Action: resilience.FaultStatus, Status: http.StatusServiceUnavailable},
		{Path: "/part/", P: 0.08, Seed: 33, Times: 30, Action: resilience.FaultTruncate},
		{Path: "/triangles", P: 0.25, Seed: 44, Times: 20, Action: resilience.FaultDelay, Delay: 2 * time.Millisecond},
	}, routed...)...)
	// Provisioned for the workload: 8 concurrent clients (plus retry
	// amplification) must never trip admission control on a slow 1-CPU CI
	// box — this soak asserts fault tolerance, not load shedding.
	lc, cts := startLocal(t, 3, server.Options{
		MaxWorkers:    8,
		MaxConcurrent: 16,
		QueueWait:     30 * time.Second,
	}, Options{
		ShardTimeout:    2 * time.Second,
		BreakerCooldown: 100 * time.Millisecond,
		RetryBudget:     64,
		Client:          &http.Client{Transport: inj.RoundTripper(http.DefaultTransport)},
	})
	if _, err := lc.Coordinator.Create(t.Context(), "g", "", "test", g.Clone(), 1); err != nil {
		t.Fatal(err)
	}

	urls := queryURLs()
	const workers, iters = 8, 25
	var wg sync.WaitGroup
	errc := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				u := urls[(w*31+it)%len(urls)]
				resp, err := http.DefaultClient.Get(cts.URL + u)
				if err != nil {
					errc <- fmt.Errorf("worker %d %s: %v", w, u, err)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("worker %d %s: status %d: %s", w, u, resp.StatusCode, body)
					continue
				}
				if !bytes.Equal(body, want[u]) {
					errc <- fmt.Errorf("worker %d %s: body diverged from fault-free twin:\n got: %s\nwant: %s", w, u, body, want[u])
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	failures := 0
	for err := range errc {
		failures++
		if failures <= 10 {
			t.Error(err)
		}
	}
	if failures > 10 {
		t.Errorf("... and %d more failures", failures-10)
	}

	if inj.Fired() == 0 {
		t.Fatal("fault injector never fired: the soak tested nothing")
	}
	t.Logf("injected %d faults across %d requests", inj.Fired(), workers*iters)
	for _, r := range routed {
		if r.Fired() == 0 {
			t.Errorf("the %v rule on %s never fired", r.Action, r.Path)
		}
	}

	// Cache exactness under chaos: injected failures happen on the wire, so
	// shard-side executions stay single-flight — never failed, never
	// duplicated. Exactly one variant key is in play (uniform:p=0.5 at
	// seed=42, workers=1; compare shares it).
	st, err := lc.Coordinator.Stats(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range st.PerShard {
		cs := sh.Cache
		if cs.Failures != 0 {
			t.Errorf("shard %d: %d failed executions under injected faults, want 0", sh.Shard, cs.Failures)
		}
		if cs.Misses != cs.Executions {
			t.Errorf("shard %d: misses=%d executions=%d, want equal", sh.Shard, cs.Misses, cs.Executions)
		}
		if cs.Executions > 1 {
			t.Errorf("shard %d: %d executions of one variant key, want at most 1", sh.Shard, cs.Executions)
		}
	}
}
