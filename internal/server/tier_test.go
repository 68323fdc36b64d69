package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"slimgraph/internal/graph"
	"slimgraph/internal/schemes"
	"slimgraph/internal/succinct"
	"slimgraph/internal/traverse"
)

func mustGen(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	g, _, err := Generate("communities", 0, 0, 400, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRetiredSnapshotIsNotAttached: a data directory that holds a servable
// image of a retired version (v2.1: LEB128 lists) or one whose header
// declares a stored vertex permutation (flag 4) comes up without it — the
// startup scan reports each refusal with its reason, the graph is not served
// from bytes the current reader would misread, the file is left where it
// is, and the rest of the directory attaches as usual.
func TestRetiredSnapshotIsNotAttached(t *testing.T) {
	dir := t.TempDir()
	opts := Options{CacheCapacity: 4, MaxWorkers: 2, DataDir: dir}
	first, firstTS := newTestServer(t, opts)
	for _, name := range []string{"old", "permuted", "new"} {
		code, body := postJSON(t, firstTS.URL+"/v1/graphs", map[string]any{
			"name": name, "gen": "communities", "numVertices": 300, "seed": 5, "memory": MemoryPacked,
		})
		mustStatus(t, http.StatusCreated, code, body)
	}
	refusals := map[string]struct {
		corrupt func(img []byte)
		reason  []string
	}{
		// The servable minor before the list codec changed.
		"old": {func(img []byte) { img[6] = 1 }, []string{"version 2.1 holds LEB128 gap lists", "want version 2.3"}},
		// A pack-time permutation, which no reader maps back any more.
		"permuted": {func(img []byte) { img[5] |= 4 }, []string{"version 2.3 stores a vertex permutation"}},
	}
	for name, r := range refusals {
		path := first.Local().catalog.store.graphPath(name)
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if img[4] != succinct.SnapshotVersion || img[6] != succinct.ServableMinor || img[5]&4 != 0 {
			t.Fatalf("the store wrote version %d.%d with flags %#x", img[4], img[6], img[5])
		}
		r.corrupt(img)
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	second, secondTS := newTestServer(t, opts)
	if got := second.Local().Attached(); len(got) != 1 || got[0] != "new" {
		t.Fatalf("restart attached %v, want [new]", got)
	}
	skipped := second.Local().Skipped()
	if len(skipped) != len(refusals) {
		t.Fatalf("restart skipped %q, want one refusal each of %d snapshots", skipped, len(refusals))
	}
	for name, r := range refusals {
		found := false
		for _, s := range skipped {
			if strings.HasPrefix(s, `"`+name+`"`) {
				found = true
				for _, reason := range r.reason {
					if !strings.Contains(s, reason) {
						t.Errorf("the refusal of %q is %q, want it to name %q", name, s, reason)
					}
				}
			}
		}
		if !found {
			t.Errorf("restart skipped %q, want a refusal of %q", skipped, name)
		}
		if code, body := get(t, secondTS.URL+"/v1/graphs/"+name+"/degrees"); code != http.StatusNotFound {
			t.Fatalf("the refused snapshot %q is served: status %d, body %s", name, code, body)
		}
		if _, err := os.Stat(second.Local().catalog.store.graphPath(name)); err != nil {
			t.Fatalf("the refused snapshot %q was removed: %v", name, err)
		}
	}
	code, body := get(t, secondTS.URL+"/v1/graphs/new/degrees")
	mustStatus(t, http.StatusOK, code, body)
}

// TestTierWarmRestart pins the headline guarantee: a second server over the
// same data directory re-attaches every snapshot memory-mapped and answers
// its first queries byte-identically to the heap-resident twin — with ZERO
// Unpack calls, i.e. no decode pass of any snapshot.
func TestTierWarmRestart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{CacheCapacity: 16, MaxWorkers: 4}
	warmOpts := opts
	warmOpts.DataDir = dir
	first, firstTS := newTestServer(t, warmOpts)

	code, body := postJSON(t, firstTS.URL+"/v1/graphs", map[string]any{
		"name": "g", "gen": "communities", "numVertices": 400, "seed": 11,
		"weighted": true, "memory": MemoryPacked,
	})
	mustStatus(t, http.StatusCreated, code, body)
	if got := len(first.Local().Attached()); got != 0 {
		t.Fatalf("fresh directory attached %d graphs", got)
	}

	queries := []string{
		"/v1/graphs/g/bfs?root=0&workers=2",
		"/v1/graphs/g/pagerank?k=8&workers=2",
		"/v1/graphs/g/triangles?workers=2",
		"/v1/graphs/g/degrees?workers=2",
	}
	want := map[string][]byte{}
	for _, q := range queries {
		code, body := get(t, firstTS.URL+q)
		mustStatus(t, http.StatusOK, code, body)
		want[q] = body
	}

	// "Restart": a second server over the same directory. The snapshot must
	// be attached mapped, visible in the graph info and the tier stats.
	second, secondTS := newTestServer(t, warmOpts)
	if got := second.Local().Attached(); len(got) != 1 || got[0] != "g" {
		t.Fatalf("restart attached %v, want [g]", got)
	}
	code, body = get(t, secondTS.URL+"/v1/graphs/g")
	mustStatus(t, http.StatusOK, code, body)
	var info GraphInfo
	mustJSON(t, body, &info)
	if info.Residency != ResidencyMapped {
		t.Fatalf("restarted graph residency %q, want %q", info.Residency, ResidencyMapped)
	}
	if info.N != 400 || !info.Weighted || info.Memory != MemoryPacked {
		t.Fatalf("restarted graph identity wrong: %+v", info)
	}

	// The tripwire: from here on, ANY Unpack is a failed restart guarantee.
	var unpacks atomic.Int64
	succinct.UnpackHook = func(*succinct.PackedGraph) { unpacks.Add(1) }
	defer func() { succinct.UnpackHook = nil }()
	for _, q := range queries {
		code, body := get(t, secondTS.URL+q)
		mustStatus(t, http.StatusOK, code, body)
		if !bytes.Equal(want[q], body) {
			t.Errorf("%s: restarted response differs\nwarm:      %s\nrestarted: %s", q, want[q], body)
		}
		if n := unpacks.Load(); n != 0 {
			t.Fatalf("%s: restart decoded a snapshot %d time(s); must serve the mapping in place", q, n)
		}
	}
	succinct.UnpackHook = nil

	// Variants still compute correctly over the mapped original.
	code, body = get(t, secondTS.URL+"/v1/graphs/g/bfs?root=0&spec=uniform:p=0.5&seed=3&workers=2")
	mustStatus(t, http.StatusOK, code, body)
	code, wantVar := get(t, firstTS.URL+"/v1/graphs/g/bfs?root=0&spec=uniform:p=0.5&seed=3&workers=2")
	mustStatus(t, http.StatusOK, code, wantVar)
	if !bytes.Equal(wantVar, body) {
		t.Fatalf("variant query differs after restart\nwarm:      %s\nrestarted: %s", wantVar, body)
	}

	code, body = get(t, secondTS.URL+"/v1/stats")
	mustStatus(t, http.StatusOK, code, body)
	var st StatsResponse
	mustJSON(t, body, &st)
	if st.Tier == nil {
		t.Fatal("stats over a data directory carry no tier block")
	}
	if st.Tier.Attached != 1 {
		t.Fatalf("tier.attached = %d, want 1", st.Tier.Attached)
	}
	if st.Tier.DataDir != dir {
		t.Fatalf("tier.dataDir = %q, want %q", st.Tier.DataDir, dir)
	}
}

// TestTierBudgetSpill pins the memory-budget spiller: past the budget the
// LRU graph drops its heap forms and serves memory-mapped, byte-identically
// to an unbounded twin.
func TestTierBudgetSpill(t *testing.T) {
	opts := Options{CacheCapacity: 16, MaxWorkers: 4}
	_, heapTS := newTestServer(t, opts)
	spillOpts := opts
	spillOpts.DataDir = t.TempDir()
	spillOpts.MemBudget = 1 // every heap byte is over budget
	spilled, spillTS := newTestServer(t, spillOpts)

	for _, ts := range []string{heapTS.URL, spillTS.URL} {
		code, body := postJSON(t, ts+"/v1/graphs", map[string]any{
			"name": "g", "gen": "communities", "numVertices": 400, "seed": 11,
			"weighted": true,
		})
		mustStatus(t, http.StatusCreated, code, body)
	}

	code, body := get(t, spillTS.URL+"/v1/graphs/g")
	mustStatus(t, http.StatusOK, code, body)
	var info GraphInfo
	mustJSON(t, body, &info)
	if info.Residency != ResidencyMapped {
		t.Fatalf("over-budget graph residency %q, want %q", info.Residency, ResidencyMapped)
	}
	var st StatsResponse
	code, body = get(t, spillTS.URL+"/v1/stats")
	mustStatus(t, http.StatusOK, code, body)
	mustJSON(t, body, &st)
	if st.Tier == nil || st.Tier.GraphSpills < 1 {
		t.Fatalf("expected at least one graph spill, stats: %s", body)
	}

	for _, q := range []string{
		"/v1/graphs/g/bfs?root=0&workers=2",
		"/v1/graphs/g/pagerank?k=8&workers=2",
		"/v1/graphs/g/triangles?workers=2",
		"/v1/graphs/g/triangles?mode=approx&p=0.5&seed=9&workers=2",
		"/v1/graphs/g/degrees?workers=2",
	} {
		heapCode, heapBody := get(t, heapTS.URL+q)
		mustStatus(t, http.StatusOK, heapCode, heapBody)
		spillCode, spillBody := get(t, spillTS.URL+q)
		mustStatus(t, http.StatusOK, spillCode, spillBody)
		if !bytes.Equal(heapBody, spillBody) {
			t.Errorf("%s: spilled response differs from heap twin\nheap:    %s\nspilled: %s", q, heapBody, spillBody)
		}
	}
	// The spill dropped the triangle arena the exact count rebuilt; heap
	// bytes must be back under scrutiny (the arena is charged to the budget,
	// so the post-query enforcement reclaims it).
	raw, packed, arena, mapped := spilled.Local().catalog.residentBytes()
	if raw != 0 || packed != 0 || arena != 0 {
		t.Fatalf("heap bytes after spill: raw=%d packed=%d arena=%d, want all 0", raw, packed, arena)
	}
	if mapped == 0 {
		t.Fatal("no mapped bytes after spill")
	}
}

// TestArenaReclaimIsNotAGraphSpill pins the graph-spill counter to dropped
// heap forms: after a restart over a tiny budget the graph is attached
// mapped, so when the budget reclaims the triangle arena each exact count
// builds, nothing is spilled — graphSpills stays 0 (on /v1/stats and on
// slimgraph_catalog_tier_graph_spills_total) while the arena bytes go.
func TestArenaReclaimIsNotAGraphSpill(t *testing.T) {
	dir := t.TempDir()
	_, firstTS := newTestServer(t, Options{MaxWorkers: 2, DataDir: dir})
	code, body := postJSON(t, firstTS.URL+"/v1/graphs", map[string]any{
		"name": "g", "gen": "communities", "numVertices": 400, "seed": 11,
	})
	mustStatus(t, http.StatusCreated, code, body)

	second, secondTS := newTestServer(t, Options{MaxWorkers: 2, DataDir: dir, MemBudget: 1})
	cat := second.Local().catalog
	for i := 0; i < 2; i++ {
		code, body := get(t, secondTS.URL+"/v1/graphs/g/triangles?workers=2")
		mustStatus(t, http.StatusOK, code, body)
		raw, packed, arena, mapped := cat.residentBytes()
		if raw != 0 || packed != 0 || arena != 0 || mapped == 0 {
			t.Fatalf("after exact count %d: raw=%d packed=%d arena=%d mapped=%d, want mapped bytes only", i+1, raw, packed, arena, mapped)
		}
		if n := cat.tier.graphSpills.Load(); n != 0 {
			t.Fatalf("after exact count %d: %d graph spills, want 0 (the graph was mapped all along)", i+1, n)
		}
	}
	code, body = get(t, secondTS.URL+"/metrics")
	mustStatus(t, http.StatusOK, code, body)
	for _, series := range []string{"slimgraph_catalog_tier_graph_spills_total 0", "slimgraph_triangle_engine_builds_total 2"} {
		if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + `$`).Match(body) {
			t.Errorf("metrics lack %q", series)
		}
	}
}

// TestTierCrashConsistency pins the atomic-write contract: interrupted
// spills (*.tmp leftovers) are deleted by the startup scan, torn snapshots
// are skipped rather than served, and the name is free to be re-created —
// which re-persists a complete snapshot.
func TestTierCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	opts := Options{MaxWorkers: 2, DataDir: dir}
	l, err := NewLocal(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Create(context.Background(), "g", MemoryRaw, "test", mustGen(t, 1), 1); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-spill: a partial temp file, and a torn snapshot
	// under its final name (only an outside force produces the latter; the
	// rename protocol never does).
	gpath := filepath.Join(dir, "graphs", "g.sgp")
	whole, err := os.ReadFile(gpath)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "graphs", "h.sgp.tmp")
	if err := os.WriteFile(tmp, whole[:len(whole)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "graphs", "h.sgp")
	if err := os.WriteFile(torn, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart. The temp file must be gone, the torn snapshot must not have
	// become a catalog entry, and the complete one must be attached.
	l2, err := NewLocal(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("startup scan left the temp file behind (stat err: %v)", err)
	}
	if got := l2.Attached(); len(got) != 1 || got[0] != "g" {
		t.Fatalf("restart attached %v, want [g] (torn snapshot must be skipped)", got)
	}
	if _, ok := l2.catalog.get("h"); ok {
		t.Fatal("torn snapshot became a catalog entry")
	}

	// The torn name is free: re-creating it overwrites the torn file with a
	// complete snapshot — the re-spill after a crash.
	if _, err := l2.Create(context.Background(), "h", MemoryRaw, "test", mustGen(t, 2), 1); err != nil {
		t.Fatalf("re-creating over a torn snapshot: %v", err)
	}
	if _, err := succinct.StatServable(torn); err != nil {
		t.Fatalf("re-created snapshot is not servable: %v", err)
	}
}

// TestTierDeleteDrainsReaders pins the unmap-after-last-reader contract: a
// DELETE while a query holds the mapping must not unmap until that query
// releases, and the reader can keep walking the mapping in the meantime.
func TestTierDeleteDrainsReaders(t *testing.T) {
	opts := Options{MaxWorkers: 2, DataDir: t.TempDir(), MemBudget: 1}
	l, err := NewLocal(opts)
	if err != nil {
		t.Fatal(err)
	}
	g := mustGen(t, 3)
	if _, err := l.Create(context.Background(), "g", MemoryRaw, "test", g, 1); err != nil {
		t.Fatal(err)
	}
	e, ok := l.catalog.get("g")
	if !ok {
		t.Fatal("no entry")
	}
	if e.residency() != ResidencyMapped {
		t.Fatalf("residency %q, want mapped (budget=1)", e.residency())
	}
	adj, _, release, err := l.resolve(e, QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	m := e.mapped
	e.mu.Unlock()
	if m == nil {
		t.Fatal("no mapping")
	}

	if _, err := l.Drop(context.Background(), "g"); err != nil {
		t.Fatal(err)
	}
	if m.Unmapped() {
		t.Fatal("DELETE unmapped while a reader was in flight")
	}
	// The in-flight reader still walks the (unlinked, still-mapped) pages.
	deg := 0
	for v := 0; v < adj.N(); v++ {
		deg += adj.Degree(graph.NodeID(v))
	}
	if deg != 2*g.M() {
		t.Fatalf("degree sum %d, want %d", deg, 2*g.M())
	}
	release()
	if !m.Unmapped() {
		t.Fatal("last release did not unmap the deleted graph")
	}
	if _, err := os.Stat(filepath.Join(opts.DataDir, "graphs", "g.sgp")); !os.IsNotExist(err) {
		t.Fatalf("DELETE left the snapshot on disk (stat err: %v)", err)
	}
}

// TestTierVariantSpillAndFaultIn pins the variant tier: an LRU-evicted
// variant is persisted, and the next request for the same key restores it
// from disk instead of recomputing — with byte-identical query results.
func TestTierVariantSpillAndFaultIn(t *testing.T) {
	opts := Options{CacheCapacity: 1, MaxWorkers: 4}
	_, heapTS := newTestServer(t, opts)
	tierOpts := opts
	tierOpts.DataDir = t.TempDir()
	tiered, tierTS := newTestServer(t, tierOpts)

	for _, ts := range []string{heapTS.URL, tierTS.URL} {
		code, body := postJSON(t, ts+"/v1/graphs", map[string]any{
			"name": "g", "gen": "communities", "numVertices": 400, "seed": 11,
		})
		mustStatus(t, http.StatusCreated, code, body)
	}
	compress := func(base, spec string) {
		code, body := postJSON(t, base+"/v1/graphs/g/compress", map[string]any{
			"spec": spec, "seed": 3,
		})
		mustStatus(t, http.StatusOK, code, body)
	}
	// Capacity 1: the second spec evicts the first, which must spill.
	compress(tierTS.URL, "uniform:p=0.5")
	compress(tierTS.URL, "uniform:p=0.25")
	tc := &tiered.Local().catalog.tier
	if n := tc.variantSpills.Load(); n != 1 {
		t.Fatalf("variant spills = %d, want 1", n)
	}

	// Re-requesting the evicted spec faults it in from disk (no recompute)
	// and the query over it matches an untiered twin bit for bit.
	compress(heapTS.URL, "uniform:p=0.5")
	q := "/v1/graphs/g/bfs?root=0&spec=uniform:p=0.5&seed=3"
	code, wantBody := get(t, heapTS.URL+q)
	mustStatus(t, http.StatusOK, code, wantBody)
	code, gotBody := get(t, tierTS.URL+q)
	mustStatus(t, http.StatusOK, code, gotBody)
	if !bytes.Equal(wantBody, gotBody) {
		t.Fatalf("faulted-in variant differs\nheap:   %s\ntiered: %s", wantBody, gotBody)
	}
	if n := tc.variantFaultIns.Load(); n != 1 {
		t.Fatalf("variant fault-ins = %d, want 1", n)
	}
}

// TestOrphanedVariantIsNotFaultedIn: a spilled variant snapshot that a
// predecessor left under a graph's name (a crash between the removals of a
// DELETE, a snapshot the startup scan skipped) is cleared when a graph is
// created under that name. Compressing the new graph computes its own
// variant instead of faulting the stale one in, and answers like an
// untiered twin.
func TestOrphanedVariantIsNotFaultedIn(t *testing.T) {
	opts := Options{CacheCapacity: 4, MaxWorkers: 2}
	_, heapTS := newTestServer(t, opts)
	tierOpts := opts
	tierOpts.DataDir = t.TempDir()
	tiered, tierTS := newTestServer(t, tierOpts)

	// The stale image: another graph's variant filed under g's key.
	key := Key{Graph: "g", Spec: "uniform:p=0.5", Seed: 3, Workers: 1}
	if !tiered.Local().catalog.store.saveVariant("g", key, mustGen(t, 9), func() bool { return true }) {
		t.Fatal("seeding the stale variant snapshot failed")
	}
	for _, ts := range []string{heapTS.URL, tierTS.URL} {
		code, body := postJSON(t, ts+"/v1/graphs", map[string]any{
			"name": "g", "gen": "communities", "numVertices": 400, "seed": 11,
		})
		mustStatus(t, http.StatusCreated, code, body)
		code, body = postJSON(t, ts+"/v1/graphs/g/compress", map[string]any{
			"spec": key.Spec, "seed": key.Seed, "workers": key.Workers,
		})
		mustStatus(t, http.StatusOK, code, body)
	}
	if n := tiered.Local().catalog.tier.variantFaultIns.Load(); n != 0 {
		t.Fatalf("variant fault-ins = %d, want 0: the stale snapshot was served for the new graph", n)
	}
	q := "/v1/graphs/g/bfs?root=0&spec=uniform:p=0.5&seed=3&workers=1"
	code, wantBody := get(t, heapTS.URL+q)
	mustStatus(t, http.StatusOK, code, wantBody)
	code, gotBody := get(t, tierTS.URL+q)
	mustStatus(t, http.StatusOK, code, gotBody)
	if !bytes.Equal(wantBody, gotBody) {
		t.Fatalf("variant of the re-created graph differs from its untiered twin\nheap:   %s\ntiered: %s", wantBody, gotBody)
	}
}

// TestSpillRacingDeleteLeavesNoOrphan: variant spills of a graph race its
// DELETE and re-creation under the same name. Once the churn stops, every
// spilled snapshot under the name holds the variant of the graph now live.
// CI runs it under -race.
func TestSpillRacingDeleteLeavesNoOrphan(t *testing.T) {
	ctx := context.Background()
	l, err := NewLocal(Options{CacheCapacity: 1, MaxWorkers: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{"uniform:p=0.5", "uniform:p=0.25", "uniform:p=0.75"}
	const rounds = 20
	graphs := make([]*graph.Graph, rounds+1)
	for i := range graphs {
		graphs[i] = mustGen(t, uint64(i+1))
	}
	if _, err := l.Create(ctx, "g", MemoryRaw, "test", graphs[0], 1); err != nil {
		t.Fatal(err)
	}
	stop, progress := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			// Capacity 1: every compress evicts, and so spills, the last
			// one. A compress that loses its graph to the DELETE fails.
			_, _ = l.Compress(ctx, "g", specs[i%len(specs)], QueryParams{Seed: 3, Workers: 1})
			select {
			case progress <- struct{}{}:
			case <-stop:
				return
			}
		}
	}()
	for i := 1; i <= rounds; i++ {
		// Let a few compresses (and so spills) of the live graph land, then
		// delete and re-create it while the next ones run.
		for range len(specs) {
			<-progress
		}
		if _, err := l.Drop(ctx, "g"); err != nil {
			t.Error(err)
		}
		if _, err := l.Create(ctx, "g", MemoryRaw, "test", graphs[i], 1); err != nil {
			t.Error(err)
		}
	}
	// A full cycle over the live graph spills its variants too.
	for range len(specs) + 1 {
		<-progress
	}
	close(stop)
	wg.Wait()

	st := l.catalog.store
	for _, spec := range specs {
		path := st.variantPath("g", Key{Graph: "g", Spec: spec, Seed: 3, Workers: 1})
		m, err := succinct.OpenPacked(path)
		if err != nil {
			continue // never spilled for the live graph
		}
		sch, err := schemes.Parse(spec, schemes.WithSeed(3), schemes.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sch.Apply(graphs[rounds])
		if err != nil {
			t.Fatal(err)
		}
		if m.M() != res.Output.M() || !slices.Equal(traverse.BFS(m, 0, 1).Dist, traverse.BFS(res.Output, 0, 1).Dist) {
			t.Errorf("%s: the spilled snapshot (m=%d) is not the live graph's variant (m=%d)", spec, m.M(), res.Output.M())
		}
		_ = m.Close()
	}
}

// TestArenaBytesAccounted pins a fixed regression: the triangle arena is
// part of the catalog's resident bytes, exposed on the
// slimgraph_catalog_arena_bytes gauge, and equals the arena's own
// accounting — which, for a count-only forward CSR, is at most 16(n+1) + 4m
// bytes.
func TestArenaBytesAccounted(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxWorkers: 2})
	code, body := postJSON(t, ts.URL+"/v1/graphs", map[string]any{
		"name": "g", "gen": "communities", "numVertices": 400, "seed": 11,
	})
	mustStatus(t, http.StatusCreated, code, body)

	_, _, arena, _ := s.Local().catalog.residentBytes()
	if arena != 0 {
		t.Fatalf("arena bytes before any triangle query: %d, want 0", arena)
	}
	code, body = get(t, ts.URL+"/v1/graphs/g/triangles")
	mustStatus(t, http.StatusOK, code, body)

	e, _ := s.Local().catalog.get("g")
	e.mu.Lock()
	en := e.engine
	e.mu.Unlock()
	if en == nil {
		t.Fatal("exact count built no engine")
	}
	_, _, arena, _ = s.Local().catalog.residentBytes()
	if arena == 0 || arena != en.SizeBytes() {
		t.Fatalf("arena bytes = %d, engine accounts %d", arena, en.SizeBytes())
	}
	if limit := 16*int64(e.n+1) + 4*int64(e.m); arena > limit {
		t.Fatalf("arena bytes = %d over 16(n+1) + 4m = %d", arena, limit)
	}

	code, body = get(t, ts.URL+"/metrics")
	mustStatus(t, http.StatusOK, code, body)
	re := regexp.MustCompile(`(?m)^slimgraph_catalog_arena_bytes ([1-9][0-9.e+]*)$`)
	if !re.Match(body) {
		t.Fatalf("metrics exposition lacks a non-zero slimgraph_catalog_arena_bytes gauge")
	}
}

func mustJSON(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("unmarshaling %s: %v", body, err)
	}
}

// TestTierBudgetCountsHeapPacked pins the budget's accounting of a
// heap-packed entry: its bytes are the succinct form's (not a raw CSR's
// estimate), they appear under packed in the residency split and in
// /v1/stats' heapBytes, and a budget that holds one packed graph but not two
// spills the least recently used one and keeps the other on the heap.
func TestTierBudgetCountsHeapPacked(t *testing.T) {
	one := succinct.Pack(mustGen(t, 11), 1).SizeBits() / 8
	s, ts := newTestServer(t, Options{MaxWorkers: 2, DataDir: t.TempDir(), MemBudget: one + one/2})
	create := func(name string, seed uint64) {
		code, body := postJSON(t, ts.URL+"/v1/graphs", map[string]any{
			"name": name, "gen": "communities", "numVertices": 400, "seed": seed,
			"weighted": true, "memory": MemoryPacked,
		})
		mustStatus(t, http.StatusCreated, code, body)
	}
	residency := func(name string) string {
		e, ok := s.Local().catalog.get(name)
		if !ok {
			t.Fatalf("no entry %q", name)
		}
		return e.residency()
	}

	create("a", 11)
	raw, packed, arena, mapped := s.Local().catalog.residentBytes()
	if raw != 0 || packed != one || arena != 0 || mapped != 0 {
		t.Fatalf("one packed graph under budget: raw=%d packed=%d arena=%d mapped=%d, want packed=%d only", raw, packed, arena, mapped, one)
	}
	e, _ := s.Local().catalog.get("a")
	e.mu.Lock()
	heap := e.heapBytesLocked()
	e.mu.Unlock()
	if heap != one {
		t.Fatalf("heapBytesLocked = %d, want the packed form's %d", heap, one)
	}
	var st StatsResponse
	code, body := get(t, ts.URL+"/v1/stats")
	mustStatus(t, http.StatusOK, code, body)
	mustJSON(t, body, &st)
	if st.Tier == nil || st.Tier.HeapBytes != one || st.Tier.GraphSpills != 0 {
		t.Fatalf("stats under budget: %s", body)
	}

	create("b", 12)
	if a, b := residency("a"), residency("b"); a != ResidencyMapped || b != ResidencyPacked {
		t.Fatalf("after the second create: a is %q, b is %q; want the older one mapped, the newer packed", a, b)
	}
	raw, packed, _, mapped = s.Local().catalog.residentBytes()
	if raw != 0 || packed == 0 || packed > one+one/2 || mapped == 0 {
		t.Fatalf("after the spill: raw=%d packed=%d mapped=%d against budget %d", raw, packed, mapped, one+one/2)
	}
}

// TestAttachedVariantLifetime pins the lifetime of a variant faulted in from
// the disk tier, which serves from the mapping of its spilled snapshot. A
// query pins the mapping like a mapped original: an eviction or a DELETE of
// its graph closes the mapping but defers the munmap until
// the query releases, and a BFS in flight meanwhile answers intact. An
// attached variant evicted again is not written again — its file is the
// spill — while every fault-in still counts. CI runs it under -race.
func TestAttachedVariantLifetime(t *testing.T) {
	ctx := context.Background()
	l, err := NewLocal(Options{CacheCapacity: 1, MaxWorkers: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	g := mustGen(t, 7)
	if _, err := l.Create(ctx, "g", MemoryPacked, "test", g, 1); err != nil {
		t.Fatal(err)
	}
	a := QueryParams{Spec: "uniform:p=0.5", Seed: 3, Workers: 1}
	b := QueryParams{Spec: "uniform:p=0.25", Seed: 3, Workers: 1}
	sch, err := schemes.Parse(a.Spec, schemes.WithSeed(a.Seed), schemes.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sch.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	want := traverse.BFS(res.Output, 0, 1).Dist

	tier := &l.catalog.tier
	counts := func(step string, spills, faultIns int64) {
		t.Helper()
		if s, f := tier.variantSpills.Load(), tier.variantFaultIns.Load(); s != spills || f != faultIns {
			t.Fatalf("%s: %d variant spills and %d fault-ins, want %d and %d", step, s, f, spills, faultIns)
		}
	}
	compress := func(p QueryParams) {
		t.Helper()
		if _, err := l.Compress(ctx, "g", p.Spec, p); err != nil {
			t.Fatal(err)
		}
	}
	// attach faults a in as a query does and returns what the query holds.
	attach := func() (graph.AdjacencyEdges, func(), *succinct.Mapped) {
		t.Helper()
		e, err := l.lookup("g")
		if err != nil {
			t.Fatal(err)
		}
		adj, _, release, err := l.resolve(e, a)
		if err != nil {
			t.Fatal(err)
		}
		l.cache.mu.Lock()
		defer l.cache.mu.Unlock()
		for el := l.cache.ll.Front(); el != nil; el = el.Next() {
			if v := el.Value.(*variant); v.key.Spec == a.Spec {
				if m := v.res.mapped; m != nil {
					return adj, release, m
				}
			}
		}
		t.Fatal("the faulted-in variant is not a mapping in the cache")
		return nil, nil, nil
	}
	drained := func(step string, m *succinct.Mapped, release func()) {
		t.Helper()
		if m.Unmapped() {
			t.Fatalf("%s unmapped the variant under an in-flight query", step)
		}
		release()
		if !m.Unmapped() {
			t.Fatalf("%s: the mapping outlived its last reader", step)
		}
	}

	compress(a)
	compress(b) // evicts a, which spills
	counts("spilling a", 1, 0)

	adj, release, m := attach() // evicts b, which spills
	counts("faulting a in", 2, 1)
	compress(b) // faults b in, evicts the attached a: no write, the mapping closes
	counts("evicting the attached a", 2, 2)
	if got := traverse.BFS(adj, 0, 1).Dist; !slices.Equal(got, want) {
		t.Fatal("BFS over an evicted variant's mapping differs from the raw variant's")
	}
	drained("eviction", m, release)

	adj, release, m = attach() // evicts the attached b: no write
	counts("faulting a in for the DELETE", 2, 3)
	dist := make(chan []int32)
	go func() { dist <- traverse.BFS(adj, 0, 2).Dist }()
	if _, err := l.Drop(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	if got := <-dist; !slices.Equal(got, want) {
		t.Fatal("BFS over an attached variant differs from the raw variant's when its graph is deleted mid-query")
	}
	drained("DELETE", m, release)
}
