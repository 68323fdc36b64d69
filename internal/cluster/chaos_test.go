package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"slimgraph/internal/obs"
	"slimgraph/internal/resilience"
	"slimgraph/internal/server"
)

// queryURLs is the mixed read workload the fault-tolerance tests replay:
// every deterministic query endpoint, over the original graph and a
// compressed variant. All are byte-identical to a single node, which is the
// property that must survive shard loss and injected faults.
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

// normalizedCompress compresses g under uniform:p=0.5, seed 42, workers 1
// via base and returns the response with its wall-clock fields zeroed, the
// only ones that may differ between a cluster and a single node.
func normalizedCompress(t *testing.T, base string) server.CompressResponse {
	t.Helper()
	code, body := postAs(t, base+"/v1/graphs/g/compress", server.CompressRequest{Spec: "uniform:p=0.5", Seed: 42, Workers: 1})
	if code != http.StatusOK {
		t.Fatalf("compress via %s: status %d: %s", base, code, body)
	}
	var cr server.CompressResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	cr.ElapsedMS = 0
	for i := range cr.Stages {
		cr.Stages[i].ElapsedMS = 0
	}
	return cr
}

// TestClusterKillShardFailover is the kill-a-shard acceptance test: one of
// three shards dies mid-workload, every query keeps answering bytes
// identical to a single node (the survivors take its queries), the
// dead shard's breaker opens, a DELETE while it is down still succeeds and
// owes it a replayed unload, and after a restart the breaker closes and the
// unload drains — leaving the recovered replica consistent, computing the
// variants it missed when they are asked for.
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
	// bytes — the first requests fail over while the breaker is still
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

	// Mutations while a shard is down succeed against the survivors. The
	// compress warms the survivors only and owes the dead shard nothing;
	// the DELETE owes it an unload.
	if code, body := postAs(t, cts.URL+"/v1/graphs/g/compress", server.CompressRequest{Spec: "spanner", Seed: 42, Workers: 1}); code != http.StatusOK {
		t.Fatalf("compress with a dead shard: status %d: %s", code, body)
	}
	if code, body := do(t, "DELETE", cts.URL+"/v1/graphs/doomed", "", nil); code != http.StatusOK {
		t.Fatalf("DELETE with a dead shard: status %d: %s", code, body)
	}
	if n := lc.Coordinator.PendingRepairs(2); n != 1 {
		t.Fatalf("the dead shard is owed %d repairs, want only the unload", n)
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

	// The replayed unload left the recovered replica consistent: the
	// deleted graph is gone. The variant compressed while it was down is
	// computed on its first request there, once, and every spec query over
	// it answers the single node's bytes.
	if code, body := get(t, lc.Addr(2)+"/v1/graphs/doomed"); code != http.StatusNotFound {
		t.Errorf("recovered shard still has dropped graph: status %d: %s", code, body)
	}
	before := lc.Shard(2).Server().CacheStats().Executions
	for _, u := range queryURLs() {
		if !strings.Contains(u, "spec=") {
			continue
		}
		u = strings.Replace(u, "spec=uniform:p=0.5", "spec=spanner", 1)
		code, wantBody := get(t, sts.URL+u)
		if code != http.StatusOK {
			t.Fatalf("single node %s: status %d: %s", u, code, wantBody)
		}
		if code, body := get(t, lc.Addr(2)+u); code != http.StatusOK || !bytes.Equal(body, wantBody) {
			t.Errorf("recovered shard %s: status %d, body %s, want %s", u, code, body, wantBody)
		}
	}
	if n := lc.Shard(2).Server().CacheStats().Executions - before; n != 1 {
		t.Errorf("recovered shard executed the missed variant %d times, want 1", n)
	}

	// And it serves traffic again, bytes unchanged.
	for _, u := range queryURLs() {
		code, body := get(t, cts.URL+u)
		if code != http.StatusOK || !bytes.Equal(body, want[u]) {
			t.Errorf("recovered cluster %s: status %d", u, code)
		}
	}
}

// TestFailoverPassesOverAFailedReplica: a sub-request is one attempt, and a
// failed one goes to the next replica. With one of three replicas hung, the
// first query routed to it waits one ShardTimeout and then answers from
// another; with one answering 503 to every query, a query asks it at most
// once and waits on no backoff. A replica is asked a second time only when
// every live one failed fast, and one that ran out its ShardTimeout never
// is. Every answer is the single node's.
func TestFailoverPassesOverAFailedReplica(t *testing.T) {
	const (
		timeout = 300 * time.Millisecond
		bfs     = "/v1/graphs/g/bfs"
		u       = bfs + "?root=0&seed=42&workers=1"
	)
	g := testGraph(t)
	single := mustServer(t, server.Options{MaxWorkers: 4})
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	if err := single.AddGraph("g", "", "test", g.Clone(), 1); err != nil {
		t.Fatal(err)
	}
	_, want := get(t, sts.URL+u)
	// The time checks are loose bounds over the slowest fault-free answer;
	// the fault and sub-request counts are what show no replica was asked
	// twice.
	var healthy time.Duration
	for range 6 {
		start := time.Now()
		get(t, sts.URL+u)
		healthy = max(healthy, time.Since(start))
	}

	for _, tc := range []struct {
		name    string
		shards  int
		fault   *resilience.FaultRule
		onFirst bool          // the fault reaches shard 0 only
		queries int           // how many queries to send
		bound   time.Duration // the longest any query may take
		// The first query's faults, sub-requests and status. Every later
		// one answers 200 and asks each replica at most once.
		fires, subs int64
		code        int
	}{
		{"hung", 3, &resilience.FaultRule{Path: bfs, Action: resilience.FaultDelay, Delay: time.Minute},
			true, 6, timeout + 100*time.Millisecond, 1, 2, http.StatusOK},
		{"503", 3, &resilience.FaultRule{Path: bfs, Action: resilience.FaultStatus, Status: http.StatusServiceUnavailable},
			true, 6, healthy + 20*time.Millisecond, 1, 2, http.StatusOK},
		{"every replica fails fast once", 3, &resilience.FaultRule{Path: bfs, Times: 3, Action: resilience.FaultStatus, Status: http.StatusServiceUnavailable},
			false, 6, healthy + 20*time.Millisecond, 3, 4, http.StatusOK},
		{"the one replica hung", 1, &resilience.FaultRule{Path: bfs, Action: resilience.FaultDelay, Delay: time.Minute},
			false, 1, timeout + 100*time.Millisecond, 1, 1, http.StatusBadGateway},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The rule's host is filled in once shard 0 has a port; nothing
			// has been sent by then.
			fault := tc.fault
			lc, cts := startLocal(t, tc.shards, server.Options{MaxWorkers: 4}, Options{
				ShardTimeout: timeout,
				Client:       &http.Client{Transport: resilience.NewInjector(fault).RoundTripper(http.DefaultTransport)},
			})
			if tc.onFirst {
				fault.Host = strings.TrimPrefix(lc.Addr(0), "http://")
			}
			if _, err := lc.Coordinator.Create(t.Context(), "g", "", "test", g.Clone(), 1); err != nil {
				t.Fatal(err)
			}
			reg := lc.Front.Registry()
			subs := func() (n int64) {
				for i := range tc.shards {
					n += reg.Counter("slimgraph_shard_requests_total", "", obs.Label{Key: "shard", Value: strconv.Itoa(i)}).Value()
				}
				return n
			}
			// The rotation leads with shard 0, so the first query is the
			// one routed to the faulty replica.
			for q := range tc.queries {
				fired, sent, start := fault.Fired(), subs(), time.Now()
				code, body := get(t, cts.URL+u)
				if took := time.Since(start); took > tc.bound {
					t.Errorf("query %d took %v, want at most %v", q, took, tc.bound)
				}
				fires, n := fault.Fired()-fired, subs()-sent
				if q == 0 {
					if fires != tc.fires || n != tc.subs || code != tc.code {
						t.Fatalf("the first query: %d faults, %d sub-requests, status %d; want %d, %d, %d",
							fires, n, code, tc.fires, tc.subs, tc.code)
					}
					if code != http.StatusOK {
						continue
					}
				} else if fires > 1 || n != fires+1 {
					t.Errorf("query %d: %d faults, %d sub-requests; want at most one fault and one more sub-request", q, fires, n)
				}
				if code != http.StatusOK || !bytes.Equal(body, want) {
					t.Errorf("query %d: status %d: %.200s\nwant %.200s", q, code, body, want)
				}
			}
		})
	}
}

// TestCompressSurvivesFailedProbe pins Compress against a shard that a
// half-open breaker admitted and that then fails during the compress: the
// client gets the answer of the two shards that answered — the one a single
// node gives — and the failed probe is owed nothing, since a replica
// computes a variant when it is first asked for it.
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

	want, got := normalizedCompress(t, sts.URL), normalizedCompress(t, cts.URL)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cluster compress answered %+v, single node %+v", got, want)
	}
	if down.Fired() == 0 {
		t.Fatal("the fault rule never fired: shard 2 was not written to")
	}
	if st := lc.Coordinator.BreakerState(2); st != resilience.BreakerOpen {
		t.Errorf("after the failed probe, shard 2 breaker = %v, want open", st)
	}
	if n := lc.Coordinator.PendingRepairs(2); n != 0 {
		t.Errorf("shard 2 is owed %d repairs, want none", n)
	}
	for i := 0; i < 2; i++ {
		if cs := lc.Shard(i).Server().CacheStats(); cs.Entries != 1 {
			t.Errorf("shard %d holds %d variants after the compress, want 1", i, cs.Entries)
		}
	}
}

// TestCompressWithMinorityLive pins that a variant needs no majority: with
// two of three breakers open, compress and every spec query answer from the
// one live replica with the single node's bytes.
func TestCompressWithMinorityLive(t *testing.T) {
	g := testGraph(t)
	single := mustServer(t, server.Options{MaxWorkers: 4})
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	if err := single.AddGraph("g", "", "test", g.Clone(), 1); err != nil {
		t.Fatal(err)
	}

	singleCR := normalizedCompress(t, sts.URL) // before expectedBodies caches the variant
	want := expectedBodies(t, sts)

	lc, cts := startLocal(t, 3, server.Options{MaxWorkers: 4}, Options{
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour, // nothing half-opens during the test
	})
	if _, err := lc.Coordinator.Create(t.Context(), "g", "", "test", g.Clone(), 1); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2} {
		lc.Coordinator.breakers[i].RecordFailure()
	}

	if got := normalizedCompress(t, cts.URL); !reflect.DeepEqual(got, singleCR) {
		t.Errorf("compress with one live replica answered %+v, single node %+v", got, singleCR)
	}
	for _, u := range queryURLs() {
		if !strings.Contains(u, "spec=") {
			continue
		}
		if code, body := get(t, cts.URL+u); code != http.StatusOK || !bytes.Equal(body, want[u]) {
			t.Errorf("%s with one live replica: status %d: %s", u, code, body)
		}
	}
	for _, i := range []int{1, 2} {
		if st := lc.Coordinator.BreakerState(i); st != resilience.BreakerOpen {
			t.Errorf("shard %d breaker = %v, want open throughout", i, st)
		}
		if cs := lc.Shard(i).Server().CacheStats(); cs.Entries != 0 {
			t.Errorf("shard %d behind an open breaker holds %d variants, want 0", i, cs.Entries)
		}
	}
}

// TestClusterChaosSoak hammers a 3-shard cluster with a concurrent mixed
// workload while a seeded fault injector drops, delays, 503s, and truncates
// coordinator→shard sub-requests. Every client-visible response must be a
// 200 with bytes identical to the fault-free single-node twin, and the
// shard caches must stay exact: no failed executions, misses equal to
// executions, at most one execution per variant per shard — failovers
// never double-run a scheme.
func TestClusterChaosSoak(t *testing.T) {
	g := testGraph(t)
	single := mustServer(t, server.Options{MaxWorkers: 8})
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	if err := single.AddGraph("g", "", "test", g.Clone(), 1); err != nil {
		t.Fatal(err)
	}
	want := expectedBodies(t, sts)

	// Finite fault quotas (times=) bound the faults a run injects: about
	// fifty land somewhere in the run, but no single query draws a fault on
	// every attempt of both of its passes over the replicas.
	//
	// The routed rules aim drops, torn replies and 503s at the replicas'
	// public query routes, each query's one sub-request: BFS carries a
	// distance per vertex — where a body cut short would be easiest to
	// mistake for an answer — PageRank its top k, degrees a distribution,
	// triangles a scalar.
	// They fire from the start; every rule's firing decisions are a pure
	// function of its seed and match count, and the workload's three dozen
	// queries per route reach the first firing match of each.
	routed := []*resilience.FaultRule{
		{Path: "/v1/graphs/g/bfs", P: 0.1, Seed: 55, Times: 15, Action: resilience.FaultTruncate},
		{Path: "/v1/graphs/g/bfs", P: 0.1, Seed: 66, Times: 15, Action: resilience.FaultStatus, Status: http.StatusServiceUnavailable},
		{Path: "/v1/graphs/g/pagerank", P: 0.1, Seed: 77, Times: 15, Action: resilience.FaultTruncate},
		{Path: "/v1/graphs/g/pagerank", P: 0.1, Seed: 88, Times: 15, Action: resilience.FaultStatus, Status: http.StatusServiceUnavailable},
		{Path: "/v1/graphs/g/degrees", P: 0.12, Seed: 11, Times: 15, Action: resilience.FaultDrop},
		{Path: "/v1/graphs/g/triangles", P: 0.08, Seed: 22, Times: 15, Action: resilience.FaultStatus, Status: http.StatusServiceUnavailable},
		{Path: "/v1/graphs/g/degrees", P: 0.08, Seed: 33, Times: 15, Action: resilience.FaultTruncate},
		{Path: "/v1/graphs/g/triangles", P: 0.08, Seed: 99, Times: 15, Action: resilience.FaultTruncate},
	}
	inj := resilience.NewInjector(append([]*resilience.FaultRule{
		{Path: "/triangles", P: 0.25, Seed: 44, Times: 20, Action: resilience.FaultDelay, Delay: 2 * time.Millisecond},
	}, routed...)...)
	// Provisioned for the workload: 8 concurrent clients (plus failover
	// amplification) must never trip admission control on a slow 1-CPU CI
	// box — this soak asserts fault tolerance, not load shedding.
	lc, cts := startLocal(t, 3, server.Options{
		MaxWorkers:    8,
		MaxConcurrent: 16,
		QueueWait:     30 * time.Second,
	}, Options{
		ShardTimeout:    2 * time.Second,
		BreakerCooldown: 100 * time.Millisecond,
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
