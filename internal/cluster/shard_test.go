package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/graphio"
	"slimgraph/internal/server"
	"slimgraph/internal/succinct"
)

// TestShardRejectsHostileParts sends malformed queries straight at a
// shard's public routes, the only routes a query reaches a replica by:
// every one is a 4xx with a JSON error, never a 5xx, a panic, or a silently
// wrong answer, and nothing allocates in proportion to a query value. The
// compute routes of the retired frame protocol (/whole/) and of the scatter
// protocol before it (/part/) are gone.
func TestShardRejectsHostileParts(t *testing.T) {
	g := testGraph(t)
	n := g.N()
	sh := mustShard(t, server.Options{MaxWorkers: 4})
	if err := sh.Server().AddGraph("g", "", "test", g, 1); err != nil {
		t.Fatal(err)
	}
	if err := sh.Server().AddGraph("dg", "", "test", gen.RMATDirected(6, 4, 0.57, 0.19, 0.19, 3), 1); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sh.Handler())
	defer ts.Close()
	const w = "?seed=1&workers=1"

	for _, tc := range []struct {
		name, path string
		body       []byte
		want       int
		wantErr    string
	}{
		{"bfs ok", "/bfs" + w + "&root=5", nil, 200, ""},
		{"pagerank ok", "/pagerank" + w, nil, 200, ""},
		{"pagerank k=0 ok", "/pagerank" + w + "&k=0", nil, 200, `"k":0,"top":[]`},
		{"degrees ok", "/degrees" + w, nil, 200, ""},
		{"exact ok", "/triangles" + w, nil, 200, ""},
		{"exact by name ok", "/triangles" + w + "&mode=exact", nil, 200, ""},
		{"approx ok", "/triangles" + w + "&mode=approx&p=0.5", nil, 200, `"estimate":`},
		{"compare ok", "/compare" + w + "&spec=uniform:p=0.5", nil, 200, `"quality":{`},
		// A row's own arguments are read by its Parse.
		{"root missing is root 0", "/bfs" + w, nil, 200, `"root":0`},
		{"root not a number", "/bfs" + w + "&root=abc", nil, 400, `parameter root: want an integer, got \"abc\"`},
		{"root < 0", "/bfs" + w + "&root=-1", nil, 400, "root -1 outside [0,"},
		{"root == n", "/bfs" + w + "&root=" + strconv.Itoa(n), nil, 400, "root " + strconv.Itoa(n) + " outside [0,"},
		{"root 2^31", "/bfs" + w + "&root=2147483648", nil, 400, "root 2147483648 outside [0,"},
		{"approx p out of range", "/triangles" + w + "&mode=approx&p=2", nil, 400, "parameter p must be in (0, 1]"},
		{"unknown mode", "/triangles" + w + "&mode=part", nil, 400, `unknown mode \"part\"`},
		{"compare without spec", "/compare" + w, nil, 400, "compare needs a spec parameter"},
		// A body is nobody's input: the query string is the whole request.
		{"body on bfs", "/bfs" + w + "&root=0", []byte(`{"root":-1}`), 200, `"root":0`},
		{"bad seed", "/degrees?seed=-1&workers=1", nil, 400, `parsing \"-1\"`},
		{"missing seed is seed 0", "/triangles?workers=1", nil, 200, `"count":`},
		{"bad workers on pagerank", "/pagerank?seed=1&workers=many", nil, 400, `parameter workers: want an integer, got \"many\"`},
		{"workers past int", "/degrees?seed=1&workers=99999999999999999999", nil, 400, "parameter workers: want an integer"},
		{"unknown graph", "/degrees" + w, nil, 404, "no graph"},
		{"unknown graph, exact", "/triangles" + w, nil, 404, "no graph"},
		{"unknown graph, bfs", "/bfs" + w + "&root=0", nil, 404, "no graph"},
		// The row's Parse refuses a directed graph, not the engine's panic.
		{"directed triangles", "/triangles" + w, nil, 422, "undirected"},
		{"directed approx", "/triangles" + w + "&mode=approx", nil, 422, "undirected"},
		// No compute route of a retired protocol survives, whatever it asks for.
		{"whole bfs", "/whole/bfs" + w + "&root=0", nil, 404, ""},
		{"whole pagerank", "/whole/pagerank" + w, nil, 404, ""},
		{"whole degrees", "/whole/degrees" + w, nil, 404, ""},
		{"whole triangles", "/whole/triangles" + w, nil, 404, ""},
		{"whole compare", "/whole/compare" + w + "&spec=uniform:p=0.5", nil, 404, ""},
		{"part degrees", "/part/degrees" + w + "&shard=0&of=1", nil, 404, ""},
		{"part triangles", "/part/triangles" + w + "&shard=0&of=1", nil, 404, ""},
		{"part of 2^31-1", "/part/degrees" + w + "&shard=2147483646&of=2147483647", nil, 404, ""},
		{"part bfs", "/part/bfs" + w + "&root=0", nil, 404, ""},
	} {
		name := "g"
		switch {
		case strings.HasPrefix(tc.name, "unknown graph"):
			name = "missing"
		case strings.HasPrefix(tc.name, "directed"):
			name = "dg"
		}
		// A query is a GET of the public route; a retired route is tried
		// where it was served and on the public prefix too.
		urls := []string{ts.URL + "/v1/graphs/" + name + tc.path}
		retired := strings.HasPrefix(tc.path, "/whole/") || strings.HasPrefix(tc.path, "/part/")
		if retired {
			urls = append(urls, ts.URL+"/internal/v1/graphs/"+name+tc.path)
		}
		for _, u := range urls {
			for _, method := range []string{"GET", "POST"} {
				if method == "POST" && !retired {
					continue
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				code, body := do(t, method, u, "", tc.body)
				runtime.ReadMemStats(&after)
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
					t.Errorf("%s: serving %s %s allocated %d bytes on a %d-vertex graph", tc.name, method, u, grew, n)
				}
				if code != tc.want || !strings.Contains(string(body), tc.wantErr) {
					t.Errorf("%s: %s %s: status %d body %.120q, want %d mentioning %q", tc.name, method, u, code, body, tc.want, tc.wantErr)
				}
				// A route that does not exist is the mux's plain 404; every
				// analytics route answers the JSON error shape.
				if tc.want != 200 && !retired && !bytes.HasPrefix(body, []byte(`{"error":`)) {
					t.Errorf("%s: error reply is not the JSON error shape: %.120q", tc.name, body)
				}
				if tc.want == 200 {
					checkShape(t, tc.name, tc.path, body, g)
				}
			}
		}
	}
}

// checkShape decodes a 200 reply of the route path names and checks it
// against g: one distance per vertex, one degree bin per degree up to the
// largest, a count or an estimate by mode. Every body ends with the one
// newline a torn reply lacks.
func checkShape(t *testing.T, name, path string, body []byte, g *graph.Graph) {
	t.Helper()
	if !bytes.HasSuffix(body, []byte("}\n")) || bytes.Count(body, []byte("\n")) != 1 {
		t.Errorf("%s: body does not end with its one newline: %.120q", name, body)
	}
	route := path[1:strings.IndexByte(path, '?')]
	var ok bool
	switch route {
	case "bfs":
		var r server.BFSResponse
		ok = json.Unmarshal(body, &r) == nil && len(r.Dist) == g.N() && r.Reached > 0
	case "pagerank":
		var r server.PageRankResponse
		ok = json.Unmarshal(body, &r) == nil && len(r.Top) == min(r.K, g.N())
	case "degrees":
		var r server.DegreesResponse
		ok = json.Unmarshal(body, &r) == nil && len(r.Dist) == g.MaxDegree()+1
	case "triangles":
		var r server.TrianglesResponse
		ok = json.Unmarshal(body, &r) == nil && (r.Count != nil) == (r.Mode == "exact") && (r.Estimate != nil) == (r.Mode == "approx")
	case "compare":
		var r server.CompareResponse
		ok = json.Unmarshal(body, &r) == nil && r.Quality != nil
	}
	if !ok {
		t.Errorf("%s: reply does not have the %s shape: %.200q", name, route, body)
	}
}

// TestShardLoadRejectsBadWorkers: a shard loads a graph through the public
// upload route, which refuses workers=abc with a 400 instead of loading with
// a default worker count, and creates nothing.
func TestShardLoadRejectsBadWorkers(t *testing.T) {
	sh := mustShard(t, server.Options{})
	ts := httptest.NewServer(sh.Handler())
	defer ts.Close()
	var snap bytes.Buffer
	if _, err := graphio.WritePacked(&snap, gen.Path(5)); err != nil {
		t.Fatal(err)
	}
	code, body := do(t, "POST", ts.URL+"/v1/graphs?name=g&workers=abc", "application/octet-stream", snap.Bytes())
	if code != http.StatusBadRequest || !strings.Contains(string(body), `parameter workers: want an integer, got \"abc\"`) {
		t.Fatalf("workers=abc: status %d: %s", code, body)
	}
	if code, _ := get(t, ts.URL+"/v1/graphs/g"); code != http.StatusNotFound {
		t.Fatalf("rejected load still created the graph: status %d", code)
	}
	if code, body := do(t, "POST", ts.URL+"/v1/graphs?name=g&workers=2", "application/octet-stream", snap.Bytes()); code != http.StatusCreated {
		t.Fatalf("workers=2: status %d: %s", code, body)
	}
}

// TestShardLoadRefusesPermutedSnapshot: a snapshot of either v2 minor
// uploaded to a shard whose header declares a stored vertex permutation
// (flag 4) is a 400 naming the permutation, and nothing is created.
func TestShardLoadRefusesPermutedSnapshot(t *testing.T) {
	ts := httptest.NewServer(mustShard(t, server.Options{}).Handler())
	defer ts.Close()
	g := gen.Path(5)
	var compact, servable bytes.Buffer
	if _, err := graphio.WritePacked(&compact, g); err != nil {
		t.Fatal(err)
	}
	if _, err := succinct.WriteServable(&servable, succinct.Pack(g, 0)); err != nil {
		t.Fatal(err)
	}
	for _, snap := range [][]byte{compact.Bytes(), servable.Bytes()} {
		h, _ := succinct.ParseSnapshotHeader(snap)
		h.Permuted = true
		body := append(h.Append(nil), snap[succinct.SnapshotHeaderSize:]...)
		code, reply := do(t, "POST", ts.URL+"/v1/graphs?name=g&workers=1", "application/octet-stream", body)
		want := fmt.Sprintf("version 2.%d stores a vertex permutation", h.Minor)
		if code != http.StatusBadRequest || !strings.Contains(string(reply), want) {
			t.Errorf("permuted v2.%d load: status %d, body %s; want 400 naming %q", h.Minor, code, reply, want)
		}
		if code, _ := get(t, ts.URL+"/v1/graphs/g"); code != http.StatusNotFound {
			t.Fatalf("the refused load created the graph: status %d", code)
		}
	}
}

// TestReplicationUsesPublicRoutes: a coordinator's create reaches every
// shard as POST /v1/graphs, and its rollback and a drop as DELETE
// /v1/graphs/{name}, counted by each shard's own endpoint metrics. A shard
// serves no /internal/v1 route.
func TestReplicationUsesPublicRoutes(t *testing.T) {
	lc, cts := startLocal(t, 3, server.Options{MaxWorkers: 4}, Options{})
	if _, err := lc.Coordinator.Create(t.Context(), "g", server.MemoryRaw, "test", testGraph(t), 1); err != nil {
		t.Fatal(err)
	}
	// Shard 2 already holds "dup", so creating it through the coordinator
	// fails there and rolls back on shards 0 and 1.
	if err := lc.Shard(2).Server().AddGraph("dup", "", "test", gen.Path(5), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Coordinator.Create(t.Context(), "dup", server.MemoryRaw, "test", testGraph(t), 1); server.StatusOf(err) != http.StatusConflict {
		t.Fatalf("create over a held name: %v, want a 409", err)
	}
	if code, body := do(t, "DELETE", cts.URL+"/v1/graphs/g", "", nil); code != http.StatusOK {
		t.Fatalf("drop: status %d: %s", code, body)
	}
	for i, want := range []map[string]float64{
		{`endpoint="POST /v1/graphs",status="201"`: 2, `endpoint="DELETE /v1/graphs/{name}",status="200"`: 2},
		{`endpoint="POST /v1/graphs",status="201"`: 2, `endpoint="DELETE /v1/graphs/{name}",status="200"`: 2},
		{`endpoint="POST /v1/graphs",status="201"`: 1, `endpoint="POST /v1/graphs",status="409"`: 1, `endpoint="DELETE /v1/graphs/{name}",status="200"`: 1},
	} {
		for labels, n := range want {
			if got := metricValue(t, lc.Addr(i), "slimgraph_http_requests_total{"+labels+"}"); got != n {
				t.Errorf("shard %d: %s requests %v, want %v", i, labels, got, n)
			}
		}
		wantDup := http.StatusNotFound
		if i == 2 {
			wantDup = http.StatusOK
		}
		if code, _ := get(t, lc.Addr(i)+"/v1/graphs/dup"); code != wantDup {
			t.Errorf("shard %d: GET dup status %d after the rollback, want %d", i, code, wantDup)
		}
		for _, method := range []string{"POST", "DELETE", "GET"} {
			for _, path := range []string{"/internal/v1/graphs?name=x&workers=1", "/internal/v1/graphs/dup"} {
				if code, body := do(t, method, lc.Addr(i)+path, "application/octet-stream", nil); code != http.StatusNotFound {
					t.Errorf("shard %d: %s %s: status %d: %s, want 404", i, method, path, code, body)
				}
			}
		}
	}
	if code, _ := get(t, lc.Addr(2)+"/v1/graphs/g"); code != http.StatusNotFound {
		t.Errorf("shard 2 still holds the dropped graph: status %d", code)
	}
}

// tornReplies serves a real shard, except that it cuts the body of every
// successful query reply short — alternately by its closing newline alone
// and to half its length — and sends the cut body as a complete one.
type tornReplies struct {
	inner http.Handler
	cut   atomic.Int64
}

func (s *tornReplies) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/v1/graphs/") || strings.Count(r.URL.Path, "/") != 4 {
		s.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	s.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if rec.Code == http.StatusOK {
		if s.cut.Add(1)%2 == 1 {
			body = body[:len(body)-1]
		} else {
			body = body[:len(body)/2]
		}
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(body)
}

// TestShortWholeReplyFailsOver pins the torn-reply check: a query reply cut
// short — even by its closing newline alone, on an otherwise complete
// exchange — is torn. It fails over to a replica that answers whole, so
// with one or two of three replicas cutting the client still gets the
// single node's bytes, and when every replica cuts it gets a 502 — never a
// shorter answer.
func TestShortWholeReplyFailsOver(t *testing.T) {
	g := testGraph(t)
	single := mustServer(t, server.Options{MaxWorkers: 4})
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	if err := single.AddGraph("g", "", "test", g.Clone(), 1); err != nil {
		t.Fatal(err)
	}
	urls := []string{
		"/v1/graphs/g/bfs?root=0&seed=42&workers=1",
		"/v1/graphs/g/pagerank?k=10&seed=42&workers=1",
		"/v1/graphs/g/triangles?seed=42&workers=1",
		"/v1/graphs/g/degrees?seed=42&workers=1&spec=uniform:p=0.5",
	}
	for _, torn := range []int{1, 2, 3} {
		var shards []http.Handler
		var cutters []*tornReplies
		for i := range 3 {
			h := http.Handler(mustShard(t, server.Options{MaxWorkers: 4}).Handler())
			if i < torn {
				s := &tornReplies{inner: h}
				cutters = append(cutters, s)
				h = s
			}
			shards = append(shards, h)
		}
		coord, front := frontOver(t, Options{}, server.Options{MaxWorkers: 4}, shards...)
		if _, err := coord.Create(t.Context(), "g", "", "test", g.Clone(), 1); err != nil {
			t.Fatal(err)
		}
		// Three rounds, so the rotation leads with every replica.
		for range 3 {
			for _, u := range urls {
				code, body := get(t, front.URL+u)
				if torn < 3 {
					if _, want := get(t, sts.URL+u); code != http.StatusOK || !bytes.Equal(body, want) {
						t.Errorf("%d of 3 shards torn, %s: status %d: %.200s\nwant %.200s", torn, u, code, body, want)
					}
				} else if code != http.StatusBadGateway || !strings.Contains(string(body), "without the closing newline") {
					t.Errorf("every shard torn, %s: status %d: %.200s; want a 502 naming the torn reply", u, code, body)
				}
			}
		}
		for i, s := range cutters {
			if s.cut.Load() < 2 {
				t.Errorf("%d of 3 shards torn: shard %d cut %d replies, want both cuts", torn, i, s.cut.Load())
			}
		}
	}
}
