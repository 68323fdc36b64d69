package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slimgraph/internal/centrality"
	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/graphio"
	"slimgraph/internal/oracle"
	"slimgraph/internal/schemes"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// request performs an HTTP request; safe from any goroutine.
func request(method, url, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out, nil
}

// do is request for the test goroutine, failing fast on transport errors.
func do(t *testing.T, method, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	code, out, err := request(method, url, contentType, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, out
}

func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return do(t, "POST", url, "application/json", b)
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	return do(t, "GET", url, "", nil)
}

// mustStatus fails the test with the body in the message when the status
// differs.
func mustStatus(t *testing.T, want, got int, body []byte) {
	t.Helper()
	if got != want {
		t.Fatalf("status %d, want %d; body: %s", got, want, body)
	}
}

// createCommunities creates a triangle-rich graph through the HTTP API.
func createCommunities(t *testing.T, base, name string, n int, seed uint64, memory string) {
	t.Helper()
	code, body := postJSON(t, base+"/v1/graphs", map[string]any{
		"name": name, "gen": "communities", "numVertices": n, "seed": seed, "memory": memory,
	})
	mustStatus(t, http.StatusCreated, code, body)
}

// TestEndToEndMixedWorkload drives a mixed concurrent workload — loads,
// compressions, queries, and compares — from many goroutines, then checks
// the cache counters add up and that every response to an identical query
// was byte-identical. CI runs this package under -race.
func TestEndToEndMixedWorkload(t *testing.T) {
	const goroutines = 8
	s, ts := newTestServer(t, Options{CacheCapacity: 32, MaxConcurrent: 4, MaxWorkers: 4})
	createCommunities(t, ts.URL, "base", 400, 7, MemoryRaw)

	// Each goroutine creates a private graph, then hammers the shared one
	// with an identical compress + query + compare sequence.
	sharedResponses := make([][3][]byte, goroutines)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*4)
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			fail := func(format string, args ...any) { errs <- fmt.Errorf(format, args...) }
			send := func(method, url string, body []byte) (int, []byte) {
				ct := ""
				if body != nil {
					ct = "application/json"
				}
				code, out, err := request(method, url, ct, body)
				if err != nil {
					fail("%s %s: %v", method, url, err)
					return 0, nil
				}
				return code, out
			}

			// Load: a private generated graph, alternating memory policy.
			memory := MemoryRaw
			if i%2 == 1 {
				memory = MemoryPacked
			}
			name := fmt.Sprintf("g%d", i)
			create, _ := json.Marshal(map[string]any{
				"name": name, "gen": "er", "numVertices": 200, "edgeFactor": 4,
				"seed": uint64(i), "memory": memory,
			})
			code, body := send("POST", ts.URL+"/v1/graphs", create)
			if code != http.StatusCreated {
				fail("create %s: %d %s", name, code, body)
				return
			}
			// Compress the private graph and query the variant.
			comp, _ := json.Marshal(CompressRequest{Spec: "uniform:p=0.5", Seed: uint64(i % 3)})
			code, body = send("POST", ts.URL+"/v1/graphs/"+name+"/compress", comp)
			if code != http.StatusOK {
				fail("compress %s: %d %s", name, code, body)
				return
			}
			code, body = send("GET", fmt.Sprintf("%s/v1/graphs/%s/bfs?root=0&spec=uniform:p=0.5&seed=%d", ts.URL, name, i%3), nil)
			if code != http.StatusOK {
				fail("bfs %s: %d %s", name, code, body)
				return
			}

			// Shared graph: identical spec and seed from every goroutine, so
			// the single-flight cache must coalesce and the responses must
			// be byte-identical.
			code, pr := send("GET", ts.URL+"/v1/graphs/base/pagerank?k=5&spec=tr-eo:p=0.8&seed=11", nil)
			if code != http.StatusOK {
				fail("pagerank base: %d %s", code, pr)
				return
			}
			code, tri := send("GET", ts.URL+"/v1/graphs/base/triangles?spec=tr-eo:p=0.8&seed=11", nil)
			if code != http.StatusOK {
				fail("triangles base: %d %s", code, tri)
				return
			}
			code, cmp := send("GET", ts.URL+"/v1/graphs/base/compare?spec=tr-eo:p=0.8&seed=11", nil)
			if code != http.StatusOK {
				fail("compare base: %d %s", code, cmp)
				return
			}
			sharedResponses[i] = [3][]byte{pr, tri, cmp}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	for i := 1; i < goroutines; i++ {
		for j, label := range []string{"pagerank", "triangles", "compare"} {
			if !bytes.Equal(sharedResponses[0][j], sharedResponses[i][j]) {
				t.Errorf("%s response diverged between goroutines 0 and %d:\n%s\nvs\n%s",
					label, i, sharedResponses[0][j], sharedResponses[i][j])
			}
		}
	}

	st := s.CacheStats()
	if st.Failures != 0 {
		t.Errorf("unexpected failures: %+v", st)
	}
	if st.Misses != st.Executions {
		t.Errorf("misses (%d) != successful executions (%d) with no failures: %+v",
			st.Misses, st.Executions, st)
	}
	// Every goroutine resolved 5 variants (compress + bfs on its own graph,
	// 3 shared-graph queries).
	total := st.Hits + st.Coalesced + st.Misses
	if want := int64(5 * goroutines); total != want {
		t.Errorf("request accounting: hits %d + coalesced %d + misses %d = %d, want %d",
			st.Hits, st.Coalesced, st.Misses, total, want)
	}
	// One uniform variant per private graph plus the single shared tr-eo
	// variant — the 3×goroutines shared requests coalesced on one run.
	if st.Executions != goroutines+1 {
		t.Errorf("executions = %d, want %d (one per private graph + 1 shared tr-eo): %+v",
			st.Executions, goroutines+1, st)
	}
	if st.Entries > st.Capacity {
		t.Errorf("entries %d exceed capacity %d", st.Entries, st.Capacity)
	}
}

// TestResponsesIdenticalAcrossRuns replays the same requests against two
// fresh servers and requires byte-identical query responses — the
// fixed-seed determinism contract of the serving layer.
func TestResponsesIdenticalAcrossRuns(t *testing.T) {
	paths := []string{
		"/v1/graphs/det/bfs?root=3",
		"/v1/graphs/det/bfs?root=3&spec=spanner:k=4&seed=2",
		"/v1/graphs/det/pagerank?k=8",
		"/v1/graphs/det/pagerank?k=8&spec=tr-eo:p=0.8&seed=9",
		"/v1/graphs/det/triangles",
		"/v1/graphs/det/triangles?mode=approx&p=0.5&seed=4",
		"/v1/graphs/det/degrees?spec=uniform:p=0.7&seed=1",
		"/v1/graphs/det/compare?spec=uniform:p=0.7&seed=1",
		"/v1/graphs/det",
	}
	run := func() [][]byte {
		_, ts := newTestServer(t, Options{})
		createCommunities(t, ts.URL, "det", 300, 5, MemoryPacked)
		out := make([][]byte, len(paths))
		for i, p := range paths {
			code, body := get(t, ts.URL+p)
			mustStatus(t, http.StatusOK, code, body)
			out[i] = body
		}
		return out
	}
	a, b := run(), run()
	for i := range paths {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("%s differs across runs:\n%s\nvs\n%s", paths[i], a[i], b[i])
		}
	}
}

// TestCachedVariantMatchesOffline pins the acceptance criterion: a cached
// PageRank top-k over tr-eo:p=0.8 is bit-identical to computing the same
// variant offline with the library at the same seed.
func TestCachedVariantMatchesOffline(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	createCommunities(t, ts.URL, "acc", 400, 7, MemoryRaw)

	// Warm the cache through the compress endpoint, then query it.
	code, body := postJSON(t, ts.URL+"/v1/graphs/acc/compress", CompressRequest{Spec: "tr-eo:p=0.8", Seed: 3})
	mustStatus(t, http.StatusOK, code, body)
	code, served := get(t, ts.URL+"/v1/graphs/acc/pagerank?k=10&spec=tr-eo:p=0.8&seed=3")
	mustStatus(t, http.StatusOK, code, served)

	// Offline: same generator, scheme, seed, and one-worker budget.
	g, _, err := Generate("communities", 0, 0, 400, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := schemes.Parse("tr-eo:p=0.8", schemes.WithSeed(3), schemes.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sch.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	ranks := centrality.PageRank(res.Output, centrality.PageRankOptions{Workers: 1})
	want, err := json.Marshal(PageRankResponse{
		Graph: "acc", Spec: "tr-eo:p=0.8", K: 10, Top: TopK(ranks, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n') // writeJSON ends every body with it
	if !bytes.Equal(served, want) {
		t.Errorf("served PageRank differs from offline computation:\n%s\nvs\n%s", served, want)
	}

	// The query must have been answered from the compress-warmed cache.
	code, body = postJSON(t, ts.URL+"/v1/graphs/acc/compress", CompressRequest{Spec: "tr-eo:p=0.8", Seed: 3})
	mustStatus(t, http.StatusOK, code, body)
	var cr CompressResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Cached {
		t.Errorf("re-compress was not served from cache: %s", body)
	}
}

// TestUploadFormats uploads the same graph as a text edge list, a v1 binary
// snapshot, and a v2 packed snapshot, and requires identical catalog
// entries and query answers.
func TestUploadFormats(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	g := gen.PlantedPartition(200, 25, 0.5, 200, 3)

	var el, bin, packed bytes.Buffer
	if err := graphio.WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	if _, err := graphio.WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	if _, err := graphio.WritePacked(&packed, g); err != nil {
		t.Fatal(err)
	}
	uploads := map[string][]byte{"u-el": el.Bytes(), "u-bin": bin.Bytes(), "u-packed": packed.Bytes()}
	for name, data := range uploads {
		code, body := do(t, "POST", ts.URL+"/v1/graphs?name="+name+"&memory=packed", "application/octet-stream", data)
		mustStatus(t, http.StatusCreated, code, body)
	}
	var answers [][]byte
	for name := range map[string]bool{"u-el": true, "u-bin": true, "u-packed": true} {
		code, body := get(t, ts.URL+"/v1/graphs/"+name+"/triangles")
		mustStatus(t, http.StatusOK, code, body)
		// Strip the graph name so the three are comparable.
		answers = append(answers, bytes.Replace(body, []byte(name), []byte("X"), 1))
	}
	for i := 1; i < len(answers); i++ {
		if !bytes.Equal(answers[0], answers[i]) {
			t.Errorf("upload formats disagree: %s vs %s", answers[0], answers[i])
		}
	}
}

// TestUploadRefusesNonFiniteWeight uploads an edge list with a NaN weight:
// the upload is a 400 naming the line, so no query can meet the weight (a
// compare over it used to answer 500, unable to encode NaN).
func TestUploadRefusesNonFiniteWeight(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, body := do(t, "POST", ts.URL+"/v1/graphs?name=g", "text/plain", []byte("0 1 nan\n1 2 1\n2 0 2\n2 3 1\n"))
	mustStatus(t, http.StatusBadRequest, code, body)
	if !strings.Contains(string(body), "line 1: weight NaN is not finite") {
		t.Errorf("the refusal does not name the line: %s", body)
	}
}

// test-pin decodes its input as summarize, relabel and tr-collapse do
// (graph.CSROf: the one transient decode of a packed or mapped entry on the
// compress path), runs the armed probe's inner spec on that decode and
// returns the inner scheme's Result as it is — Aux, stage Results and all —
// after setting finalizers that report on freed when the decode and, if the
// probe says it is an intermediate stage's, the output are collected.
type pinProbe struct {
	inner        string
	intermediate bool
	freed        chan string // buffered: finalizers never block
}

var pinArmed atomic.Pointer[pinProbe]

func init() {
	schemes.Register(schemes.Registration{
		Name:  "test-pin",
		About: "runs the armed inner spec with finalizers on its graphs (test only)",
		Apply: func(in graph.AdjacencyEdges, _ schemes.Args) (*schemes.Result, error) {
			probe := pinArmed.Load()
			sch, err := schemes.Parse(probe.inner, schemes.WithSeed(1), schemes.WithWorkers(1))
			if err != nil {
				return nil, err
			}
			g := graph.CSROf(in, 1)
			res, err := sch.Apply(g)
			if err != nil {
				return nil, err
			}
			runtime.SetFinalizer(g, func(*graph.Graph) { probe.freed <- "the transient unpacked CSR" })
			if probe.intermediate {
				runtime.SetFinalizer(res.Output, func(*graph.Graph) { probe.freed <- "an intermediate stage's output" })
			}
			return res, nil
		},
	})
}

// TestPackedVariantDoesNotPinRawInput checks a cached variant of a packed
// or mapped graph keeps nothing but its own output alive. Most schemes read
// such an entry in place and make no CSR of it; the cases here decode one
// transiently (graph.CSROf), as the schemes that build a graph on a new
// vertex set do. The variant must not pin that decode — the raw copy the packed memory policy exists to
// avoid keeping resident, which a summarize Result reaches through its
// Summary — nor a pipeline's intermediate graphs, which its stage Results
// reach. The finalizers must run while the variant is still cached.
func TestPackedVariantDoesNotPinRawInput(t *testing.T) {
	_, heapTS := newTestServer(t, Options{})
	createCommunities(t, heapTS.URL, "g", 200, 1, MemoryPacked)
	// Budget 1: the create spills at once and the entry serves mapped.
	_, mappedTS := newTestServer(t, Options{DataDir: t.TempDir(), MemBudget: 1})
	createCommunities(t, mappedTS.URL, "g", 200, 1, MemoryPacked)
	code, body := get(t, mappedTS.URL+"/v1/graphs/g")
	mustStatus(t, http.StatusOK, code, body)
	if !strings.Contains(string(body), `"residency":"mapped"`) {
		t.Fatalf("want a mapped entry: %s", body)
	}

	cases := []struct {
		spec  string
		probe pinProbe
	}{
		{"test-pin", pinProbe{inner: "summarize:eps=0.2"}},
		{"test-pin|spanner:k=8", pinProbe{inner: "tr-eo:p=0.8", intermediate: true}},
	}
	for _, e := range []struct{ name, base string }{{"packed", heapTS.URL}, {"mapped", mappedTS.URL}} {
		for _, tc := range cases {
			probe := tc.probe
			probe.freed = make(chan string, 2)
			pinArmed.Store(&probe)
			req := CompressRequest{Spec: tc.spec, Seed: 1}
			code, body := postJSON(t, e.base+"/v1/graphs/g/compress", req)
			mustStatus(t, http.StatusOK, code, body)
			pinned := map[string]bool{"the transient unpacked CSR": true}
			if probe.intermediate {
				pinned["an intermediate stage's output"] = true
			}
			for try := 0; try < 50 && len(pinned) > 0; try++ {
				runtime.GC()
				select {
				case what := <-probe.freed:
					delete(pinned, what)
				case <-time.After(10 * time.Millisecond):
				}
			}
			for what := range pinned {
				t.Errorf("%s entry: the cached %q (%s) variant pins %s", e.name, tc.spec, probe.inner, what)
			}
			// The variant itself is still resident and served from the cache.
			code, body = postJSON(t, e.base+"/v1/graphs/g/compress", req)
			mustStatus(t, http.StatusOK, code, body)
			if !strings.Contains(string(body), `"cached":true`) {
				t.Errorf("%s entry: variant not cached: %s", e.name, body)
			}
		}
	}
}

// TestListGraphsAndSchemes covers the two listing endpoints: GET /v1/graphs
// is the catalog sorted by name ([] when empty, never null) and
// GET /v1/schemes is the registry in name order, each parameter row rendered
// from the registration's table.
func TestListGraphsAndSchemes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, body := get(t, ts.URL+"/v1/graphs")
	mustStatus(t, http.StatusOK, code, body)
	if string(body) != "[]\n" {
		t.Fatalf("empty catalog lists as %q, want []", body)
	}
	createCommunities(t, ts.URL, "zeta", 100, 1, MemoryPacked)
	createCommunities(t, ts.URL, "alpha", 150, 2, MemoryRaw)
	code, body = get(t, ts.URL+"/v1/graphs")
	mustStatus(t, http.StatusOK, code, body)
	var infos []GraphInfo
	mustJSON(t, body, &infos)
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "zeta" {
		t.Fatalf("list not sorted by name: %s", body)
	}
	if a, z := infos[0], infos[1]; a.N != 150 || a.Memory != MemoryRaw || a.Residency != ResidencyRaw ||
		z.N != 100 || z.Memory != MemoryPacked || z.Residency != ResidencyPacked {
		t.Fatalf("list entries wrong: %s", body)
	}
	for _, info := range infos {
		code, one := get(t, ts.URL+"/v1/graphs/"+info.Name)
		mustStatus(t, http.StatusOK, code, one)
		var got GraphInfo
		if err := json.Unmarshal(one, &got); err != nil || got != info {
			t.Errorf("list entry %+v differs from GET of the graph: %s", info, one)
		}
	}

	code, body = get(t, ts.URL+"/v1/schemes")
	mustStatus(t, http.StatusOK, code, body)
	var listed []schemeInfo
	mustJSON(t, body, &listed)
	names := schemes.Names()
	if len(listed) != len(names) {
		t.Fatalf("listed %d schemes, the registry has %d", len(listed), len(names))
	}
	for i, name := range names {
		reg, _ := schemes.Lookup(name)
		got := listed[i]
		if got.Name != name || got.About != reg.About || len(got.Params) != len(reg.Params) {
			t.Fatalf("scheme %d: listed %+v, registered %q with %d params", i, got, name, len(reg.Params))
		}
		for j, p := range reg.Params {
			want := schemeParam{Key: p.Key, Kind: p.Kind.String(), Default: p.Default, Range: p.Range()}
			if got.Params[j] != want {
				t.Errorf("%s param %d: listed %+v, want %+v", name, j, got.Params[j], want)
			}
		}
	}
	if !strings.Contains(string(body), `{"key":"p","kind":"float","default":"0.5"`) {
		t.Errorf("uniform's p row not rendered as expected: %s", body)
	}
}

// TestEmptyGraphCompare checks a zero-vertex upload is queryable without
// panicking the compare path.
func TestEmptyGraphCompare(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, body := do(t, "POST", ts.URL+"/v1/graphs?name=empty", "text/plain", []byte("# empty\n"))
	mustStatus(t, http.StatusCreated, code, body)
	code, body = get(t, ts.URL+"/v1/graphs/empty/compare?spec=uniform:p=1")
	mustStatus(t, http.StatusOK, code, body)
	if !strings.Contains(string(body), `"n":0`) {
		t.Errorf("expected empty-graph quality counts: %s", body)
	}
}

// TestDeleteInvalidatesVariants checks DELETE purges the graph's cached
// variants and that a recreated graph under the same name does not alias
// them (the generation in the Key).
func TestDeleteInvalidatesVariants(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	createCommunities(t, ts.URL, "d", 200, 1, MemoryRaw)
	code, body := postJSON(t, ts.URL+"/v1/graphs/d/compress", CompressRequest{Spec: "uniform:p=0.5"})
	mustStatus(t, http.StatusOK, code, body)

	code, body = do(t, "DELETE", ts.URL+"/v1/graphs/d", "", nil)
	mustStatus(t, http.StatusOK, code, body)
	if !strings.Contains(string(body), `"variantsDropped":1`) {
		t.Errorf("expected one dropped variant: %s", body)
	}

	// Same name, different seed: must recompute, not alias the old variant.
	createCommunities(t, ts.URL, "d", 200, 2, MemoryRaw)
	before := s.CacheStats().Executions
	code, body = postJSON(t, ts.URL+"/v1/graphs/d/compress", CompressRequest{Spec: "uniform:p=0.5"})
	mustStatus(t, http.StatusOK, code, body)
	if got := s.CacheStats().Executions; got != before+1 {
		t.Errorf("recreated graph reused a stale variant (executions %d -> %d)", before, got)
	}
}

// TestErrorPaths pins the HTTP status codes of the failure modes.
func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	createCommunities(t, ts.URL, "e", 100, 1, MemoryRaw)

	for _, tc := range []struct {
		name   string
		method string
		path   string
		ct     string
		body   []byte
		want   int
	}{
		{"unknown graph", "GET", "/v1/graphs/nope", "", nil, http.StatusNotFound},
		{"unknown graph query", "GET", "/v1/graphs/nope/bfs", "", nil, http.StatusNotFound},
		{"duplicate name", "POST", "/v1/graphs", "application/json",
			[]byte(`{"name":"e","gen":"er"}`), http.StatusConflict},
		{"bad generator", "POST", "/v1/graphs", "application/json",
			[]byte(`{"name":"x","gen":"zzz"}`), http.StatusBadRequest},
		{"bad name", "POST", "/v1/graphs", "application/json",
			[]byte(`{"name":"a/b","gen":"er"}`), http.StatusBadRequest},
		{"bad upload", "POST", "/v1/graphs?name=y", "", []byte("0 zebra\n"), http.StatusBadRequest},
		{"bad spec", "GET", "/v1/graphs/e/bfs?spec=uniform:q=1", "", nil, http.StatusUnprocessableEntity},
		{"in-spec seed rejected", "GET", "/v1/graphs/e/bfs?spec=uniform:p=0.5,seed=9", "", nil,
			http.StatusUnprocessableEntity},
		{"in-spec workers rejected", "POST", "/v1/graphs/e/compress", "application/json",
			[]byte(`{"spec":"uniform:p=0.5,workers=2"}`), http.StatusUnprocessableEntity},
		{"NaN parameter", "GET", "/v1/graphs/e/bfs?spec=uniform:p=NaN", "", nil, http.StatusUnprocessableEntity},
		{"NaN parameter on a kernel that would run it as p=1", "GET", "/v1/graphs/e/triangles?spec=tr-eo:p=NaN", "", nil,
			http.StatusUnprocessableEntity},
		{"NaN spectral scale", "GET", "/v1/graphs/e/degrees?spec=spectral:p=NaN", "", nil, http.StatusUnprocessableEntity},
		{"NaN rho", "GET", "/v1/graphs/e/degrees?spec=cut:rho=NaN", "", nil, http.StatusUnprocessableEntity},
		{"NaN eps", "POST", "/v1/graphs/e/compress", "application/json",
			[]byte(`{"spec":"summarize:eps=NaN"}`), http.StatusUnprocessableEntity},
		{"repeated key", "GET", "/v1/graphs/e/bfs?spec=uniform:p=0.5,p=0.9", "", nil, http.StatusUnprocessableEntity},
		{"repeated key in compare", "GET", "/v1/graphs/e/compare?spec=uniform:p=0.5,p=0.9", "", nil,
			http.StatusUnprocessableEntity},
		{"bad root", "GET", "/v1/graphs/e/bfs?root=100000", "", nil, http.StatusBadRequest},
		{"non-numeric root", "GET", "/v1/graphs/e/bfs?root=abc", "", nil, http.StatusBadRequest},
		{"negative root", "GET", "/v1/graphs/e/bfs?root=-1", "", nil, http.StatusBadRequest},
		{"root that wraps to 0 as int32", "GET", "/v1/graphs/e/bfs?root=4294967296", "", nil, http.StatusBadRequest},
		{"root that wraps to 1 as int32", "GET", "/v1/graphs/e/bfs?root=4294967297", "", nil, http.StatusBadRequest},
		{"wrapping root on a variant", "GET", "/v1/graphs/e/bfs?root=4294967296&spec=uniform:p=0.5", "", nil,
			http.StatusBadRequest},
		{"non-boolean directed", "POST", "/v1/graphs?name=y&directed=yes", "", []byte("0 1\n"), http.StatusBadRequest},
		{"non-numeric k", "GET", "/v1/graphs/e/pagerank?k=abc", "", nil, http.StatusBadRequest},
		{"negative k", "GET", "/v1/graphs/e/pagerank?k=-3", "", nil, http.StatusBadRequest},
		{"non-numeric workers", "GET", "/v1/graphs/e/degrees?workers=abc", "", nil, http.StatusBadRequest},
		{"bad mode before execution", "GET", "/v1/graphs/e/triangles?mode=zzz&spec=uniform:p=0.1&seed=77", "",
			nil, http.StatusBadRequest},
		{"bad mode", "GET", "/v1/graphs/e/triangles?mode=zzz", "", nil, http.StatusBadRequest},
		{"bad doulion p", "GET", "/v1/graphs/e/triangles?mode=approx&p=7", "", nil, http.StatusBadRequest},
		{"NaN doulion p", "GET", "/v1/graphs/e/triangles?mode=approx&p=NaN", "", nil, http.StatusBadRequest},
		{"unparsable p in exact mode", "GET", "/v1/graphs/e/triangles?mode=exact&p=banana", "", nil, http.StatusBadRequest},
		{"out-of-range p in exact mode", "GET", "/v1/graphs/e/triangles?p=0", "", nil, http.StatusBadRequest},
		{"compare without spec", "GET", "/v1/graphs/e/compare", "", nil, http.StatusBadRequest},
		{"compare renumbering variant", "GET", "/v1/graphs/e/compare?spec=tr-collapse:p=1", "", nil,
			http.StatusUnprocessableEntity},
		{"compress without spec", "POST", "/v1/graphs/e/compress", "application/json",
			[]byte(`{}`), http.StatusBadRequest},
	} {
		code, body := do(t, tc.method, ts.URL+tc.path, tc.ct, tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, code, tc.want, body)
		}
		if !bytes.Contains(body, []byte(`"error":`)) {
			t.Errorf("%s: body %q carries no error message", tc.name, body)
		}
	}

	// The repeated key is named, not silently resolved to the later value.
	if _, body := do(t, "GET", ts.URL+"/v1/graphs/e/bfs?spec=uniform:p=0.5,p=0.9", "", nil); !bytes.Contains(body, []byte("parameter p given twice")) {
		t.Errorf("repeated key: body %s does not name it", body)
	}
	// A sampling probability whose cube underflows samples nothing and
	// estimates 0, not 0/0 — a NaN the JSON encoder refuses.
	code, body := do(t, "GET", ts.URL+"/v1/graphs/e/triangles?mode=approx&p=1e-300", "", nil)
	var tiny TrianglesResponse
	if err := json.Unmarshal(body, &tiny); code != http.StatusOK || err != nil || tiny.Estimate == nil || *tiny.Estimate != 0 {
		t.Errorf("p=1e-300: status %d, body %q (err %v); want 200 with estimate 0", code, body, err)
	}
	// An unencodable value that does reach the writer is a 500 with an
	// error body, not a 200 header followed by nothing.
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"estimate": math.NaN()})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), `"error":"encoding response: `) {
		t.Errorf("writeJSON(NaN): status %d, body %q; want a 500 with an error body", rec.Code, rec.Body)
	}

	for name, upload := range oracle.HostileSnapshots() {
		code, body := do(t, "POST", ts.URL+"/v1/graphs?name=hostile", "", upload)
		if code != http.StatusBadRequest || !strings.Contains(string(body), "graphio: snapshot ") {
			t.Errorf("hostile upload %s: status %d, body %s; want 400 from graphio's bounds", name, code, body)
		}
	}

	// A root past 2^31 gets the message any other out-of-range root gets.
	_, small := do(t, "GET", ts.URL+"/v1/graphs/e/bfs?root=100000", "", nil)
	_, big := do(t, "GET", ts.URL+"/v1/graphs/e/bfs?root=4294967296", "", nil)
	if want := strings.Replace(string(small), "100000", "4294967296", 1); string(big) != want {
		t.Errorf("root=4294967296: body %s, want %s", big, want)
	}
	// directed is a strict boolean, and still means what it says.
	for v, want := range map[string]bool{"true": true, "1": true, "false": false, "": false} {
		name := "dir-" + v
		code, body := do(t, "POST", ts.URL+"/v1/graphs?name="+name+"&directed="+v, "", []byte("0 1\n"))
		mustStatus(t, http.StatusCreated, code, body)
		var info GraphInfo
		if err := json.Unmarshal(body, &info); err != nil || info.Directed != want {
			t.Errorf("directed=%q: created %s (err %v), want directed=%t", v, body, err, want)
		}
	}
}
