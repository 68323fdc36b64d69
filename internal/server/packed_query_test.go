package server

import (
	"bytes"
	"net/http"
	"net/url"
	"reflect"
	"regexp"
	"strconv"
	"sync/atomic"
	"testing"

	"slimgraph/internal/succinct"
)

// TestPackedQueryPathsNeverUnpack pins the serving-layer guarantee that no
// /v1/graphs path unpacks a packed or mapped catalog entry: a compress reads
// the entry in place — edge kernels (uniform, spectral), triangle kernels
// (tr-eo) and the subgraph kernel (spanner) alike; BFS, PageRank,
// triangles (exact and approximate), degrees, and the original side of
// compare all run on the resident form; and a variant faulted back in from
// the disk tier serves from its mapping. The Unpack tripwire is armed before
// the first compress. Every answer must also be byte-identical to a
// raw-policy twin serving the same graph — the packed memory policy and the
// disk tier change residency, never results.
func TestPackedQueryPathsNeverUnpack(t *testing.T) {
	opts := Options{CacheCapacity: 16, MaxConcurrent: 4, MaxWorkers: 4}
	_, rawTS := newTestServer(t, opts)
	_, packedTS := newTestServer(t, opts)
	// Budget 1: the create spills at once and the entry serves mapped. One
	// cache slot: each compress spills the variant before it, and the next
	// query of that one faults it back in.
	mappedOpts := opts
	mappedOpts.DataDir, mappedOpts.MemBudget, mappedOpts.CacheCapacity = t.TempDir(), 1, 1
	mapped, mappedTS := newTestServer(t, mappedOpts)
	servers := []string{rawTS.URL, packedTS.URL, mappedTS.URL}

	var unpacks atomic.Int64
	succinct.UnpackHook = func(*succinct.PackedGraph) { unpacks.Add(1) }
	defer func() { succinct.UnpackHook = nil }()
	noUnpack := func(what string) {
		t.Helper()
		if n := unpacks.Load(); n != 0 {
			t.Fatalf("%s: unpacked a packed graph %d time(s); compress and query paths must run in place", what, n)
		}
	}

	for i, base := range servers {
		code, body := postJSON(t, base+"/v1/graphs", map[string]any{
			"name": "g", "gen": "communities", "numVertices": 400, "seed": 11,
			"weighted": true, "memory": []string{MemoryRaw, MemoryPacked, MemoryPacked}[i],
		})
		mustStatus(t, http.StatusCreated, code, body)
	}
	code, body := get(t, mappedTS.URL+"/v1/graphs/g")
	mustStatus(t, http.StatusOK, code, body)
	var info GraphInfo
	mustJSON(t, body, &info)
	if info.Residency != ResidencyMapped {
		t.Fatalf("residency %q, want %q (budget 1)", info.Residency, ResidencyMapped)
	}

	// Compress on every server: the responses agree but for timing. tr-eo
	// runs at one worker, the only count at which its output is fixed
	// (Scheme.Apply).
	specs := []struct {
		spec    string
		workers int
	}{{"uniform:p=0.5", 2}, {"spectral:p=1,reweight=true", 2}, {"tr-eo:p=0.8", 1}, {"spanner:k=8", 2}}
	compress := func(base, spec string, workers int) CompressResponse {
		t.Helper()
		code, body := postJSON(t, base+"/v1/graphs/g/compress", map[string]any{"spec": spec, "seed": 3, "workers": workers})
		mustStatus(t, http.StatusOK, code, body)
		var r CompressResponse
		mustJSON(t, body, &r)
		r.ElapsedMS = 0
		for i := range r.Stages {
			r.Stages[i].ElapsedMS = 0
		}
		return r
	}
	for _, sp := range specs {
		want := compress(rawTS.URL, sp.spec, sp.workers)
		for _, base := range servers[1:] {
			if got := compress(base, sp.spec, sp.workers); !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: %+v, raw twin %+v", sp.spec, base, got, want)
			}
		}
		noUnpack("compress " + sp.spec)
	}

	queries := []string{
		"/v1/graphs/g/bfs?root=0&workers=2",
		"/v1/graphs/g/pagerank?k=8&workers=2",
		"/v1/graphs/g/triangles?workers=2",
		"/v1/graphs/g/triangles?mode=approx&p=0.5&seed=9&workers=2",
		// A second exact count reuses the entry's cached oriented engine.
		"/v1/graphs/g/triangles?workers=2",
		"/v1/graphs/g/degrees?workers=2",
	}
	variant := func(i int) string {
		return "spec=" + url.QueryEscape(specs[i].spec) + "&seed=3&workers=" + strconv.Itoa(specs[i].workers)
	}
	for i := range specs {
		q := variant(i)
		queries = append(queries, "/v1/graphs/g/bfs?root=0&"+q, "/v1/graphs/g/degrees?"+q,
			"/v1/graphs/g/triangles?"+q, "/v1/graphs/g/compare?"+q)
	}
	// The last queries: the mapped server's one slot holds the last spec's
	// variant, so BFS and degrees over the first fault it in from disk.
	faultIn := variant(0)
	queries = append(queries, "/v1/graphs/g/degrees?"+variant(len(specs)-1),
		"/v1/graphs/g/bfs?root=0&"+faultIn, "/v1/graphs/g/degrees?"+faultIn)
	faultIns := &mapped.Local().catalog.tier.variantFaultIns
	for _, q := range queries {
		before := faultIns.Load()
		rawCode, rawBody := get(t, rawTS.URL+q)
		mustStatus(t, http.StatusOK, rawCode, rawBody)
		for _, base := range servers[1:] {
			code, body := get(t, base+q)
			mustStatus(t, http.StatusOK, code, body)
			if !bytes.Equal(rawBody, body) {
				t.Errorf("%s on %s: response differs from raw\nraw: %s\ngot: %s", q, base, rawBody, body)
			}
		}
		noUnpack(q)
		if q == "/v1/graphs/g/bfs?root=0&"+faultIn && faultIns.Load() != before+1 {
			t.Fatalf("%s: %d fault-ins, want 1", q, faultIns.Load()-before)
		}
	}
	code, body = get(t, mappedTS.URL+"/metrics")
	mustStatus(t, http.StatusOK, code, body)
	for _, series := range []string{`slimgraph_cache_variants{residency="mapped"} 1`, `slimgraph_cache_variants{residency="raw"} 0`} {
		if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + `$`).Match(body) {
			t.Errorf("metrics lack %s after the fault-in", series)
		}
	}
}
