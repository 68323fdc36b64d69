package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"slimgraph/internal/gen"
	"slimgraph/internal/graphio"
	"slimgraph/internal/resilience"
	"slimgraph/internal/server"
	"slimgraph/internal/succinct"
)

// roundTrip encodes (scalars, v), checks the frame's size, and decodes it
// back; equal compares elements (bit patterns for floats).
func roundTrip[T elem](t *testing.T, scalars [3]int64, v []T, equal func(a, b T) bool) {
	t.Helper()
	data := appendFrame([]byte("prefix"), scalars, v)[len("prefix"):]
	if len(data) != frameSize(widthOf[T](), len(v)) {
		t.Fatalf("frame of %d elements is %d bytes, want %d", len(v), len(data), frameSize(widthOf[T](), len(v)))
	}
	gotScalars, got, err := decodeFrame[T](nil, data, len(v))
	if err != nil {
		t.Fatalf("decoding %d elements: %v", len(v), err)
	}
	if gotScalars != scalars || !slices.EqualFunc(got, v, equal) {
		t.Fatalf("round trip changed the frame:\n got %v %v\nwant %v %v", gotScalars, got, scalars, v)
	}
	// A destination with room is reused, one without is replaced.
	dst := make([]T, 0, len(v)+1)
	if _, got, _ = decodeFrame(dst, data, len(v)); len(v) > 0 && &got[0] != &dst[:1][0] {
		t.Fatalf("decodeFrame did not reuse a large enough destination")
	}
	if _, _, err := decodeFrame[T](nil, data, len(v)-1); len(v) > 0 && err == nil {
		t.Fatalf("a frame of %d elements passed a bound of %d", len(v), len(v)-1)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	scalars := [3]int64{math.MinInt64, -1, math.MaxInt64}
	roundTrip(t, scalars, []int32{}, func(a, b int32) bool { return a == b })
	roundTrip(t, scalars, []int32{0, -1, 1, math.MinInt32, math.MaxInt32}, func(a, b int32) bool { return a == b })
	roundTrip(t, scalars, []int64(nil), func(a, b int64) bool { return a == b })
	roundTrip(t, [3]int64{}, []int64{0, -1, math.MinInt64, math.MaxInt64}, func(a, b int64) bool { return a == b })
	roundTrip(t, scalars, []float64{}, same)
	roundTrip(t, scalars, []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000123), 1.0 / 3,
	}, same)
}

// TestFrameRejectsEveryTruncation cuts a frame at every length and pads it
// at the end: only the whole frame decodes, and a rejected frame leaves
// the destination alone.
func TestFrameRejectsEveryTruncation(t *testing.T) {
	data := appendFrame(nil, [3]int64{1, 2, 3}, []float64{1, 2, 3, 4, 5})
	dst := []float64{9, 9, 9, 9, 9}
	for cut := 0; cut < len(data); cut++ {
		if _, _, err := decodeFrame(dst, data[:cut], 5); err == nil {
			t.Fatalf("frame cut to %d of %d bytes decoded", cut, len(data))
		}
	}
	if _, _, err := decodeFrame(dst, append(slices.Clone(data), 0), 5); err == nil {
		t.Fatal("frame with a trailing byte decoded")
	}
	if !slices.Equal(dst, []float64{9, 9, 9, 9, 9}) {
		t.Fatalf("rejected frames wrote to the destination: %v", dst)
	}
	for _, mutate := range []func(b []byte){
		func(b []byte) { b[0] = 's' },                                  // magic
		func(b []byte) { b[3] = 4 },                                    // width
		func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 4) },     // count below the bytes
		func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 1<<31) }, // count far above them
	} {
		bad := slices.Clone(data)
		mutate(bad)
		if _, _, err := decodeFrame[float64](nil, bad, math.MaxInt32); err == nil {
			t.Fatalf("mutated frame %x decoded", bad[:8])
		}
	}
}

// FuzzPartFrame feeds arbitrary bytes to the decoder at all three element
// types: it must not panic, must accept only frames whose length is
// exactly what the header declares (so no truncation and no count/length
// mismatch survives), must honor the element bound, and must never hand
// back more elements than the bytes justify. Accepted frames re-encode to
// the same bytes.
func FuzzPartFrame(f *testing.F) {
	f.Add(appendFrame(nil, [3]int64{}, []int32{1, 2, 3}), 8)
	f.Add(appendFrame(nil, [3]int64{7}, []int64(nil)), 0)
	f.Add(appendFrame(nil, [3]int64{0, 1, 2}, []float64{0.5, math.Inf(1)}), 1)
	f.Add([]byte("SGF\x08\xff\xff\xff\xff"), 1<<31-1)
	f.Add([]byte(`{"error":"no graph"}`), 4)
	f.Fuzz(func(t *testing.T, data []byte, max int) {
		fuzzFrame[int32](t, data, max)
		fuzzFrame[int64](t, data, max)
		fuzzFrame[float64](t, data, max)
	})
}

func fuzzFrame[T elem](t *testing.T, data []byte, max int) {
	scalars, v, err := decodeFrame[T](nil, data, max)
	if err != nil {
		if v != nil {
			t.Fatalf("rejected frame still returned %d elements", len(v))
		}
		return
	}
	if len(v) > max || cap(v)*widthOf[T]() > len(data) || len(data) != frameSize(widthOf[T](), len(v)) {
		t.Fatalf("accepted %d elements (cap %d, bound %d) from %d bytes", len(v), cap(v), max, len(data))
	}
	if again := appendFrame(nil, scalars, v); !bytes.Equal(again, data) {
		t.Fatalf("accepted frame re-encodes differently:\n got %x\nwant %x", again, data)
	}
}

// TestShardRejectsHostileParts posts malformed compute sub-requests
// straight at a shard: every one is a 4xx with a JSON error, never a 5xx, a
// panic, or a silently wrong answer. Every row is served whole on /whole/;
// the part routes of the retired scatter protocol are gone.
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
		{"bfs ok", "/whole/bfs" + w + "&root=5", nil, 200, ""},
		{"pagerank ok", "/whole/pagerank" + w, nil, 200, ""},
		{"degrees ok", "/whole/degrees" + w, nil, 200, ""},
		{"exact ok", "/whole/triangles" + w, nil, 200, ""},
		{"exact by name ok", "/whole/triangles" + w + "&mode=exact", nil, 200, ""},
		{"approx ok", "/whole/triangles" + w + "&mode=approx&p=0.5", nil, 200, ""},
		{"compare ok", "/whole/compare" + w + "&spec=uniform:p=0.5", nil, 200, `"Quality":{`},
		// A row's own arguments are read by its Parse, as on the public route.
		{"root missing is root 0", "/whole/bfs" + w, nil, 200, ""},
		{"root not a number", "/whole/bfs" + w + "&root=abc", nil, 400, `parameter root: want an integer, got \"abc\"`},
		{"root < 0", "/whole/bfs" + w + "&root=-1", nil, 400, "root -1 outside [0,"},
		{"root == n", "/whole/bfs" + w + "&root=" + strconv.Itoa(n), nil, 400, "root " + strconv.Itoa(n) + " outside [0,"},
		{"root 2^31", "/whole/bfs" + w + "&root=2147483648", nil, 400, "root 2147483648 outside [0,"},
		{"approx p out of range", "/whole/triangles" + w + "&mode=approx&p=2", nil, 400, "parameter p must be in (0, 1]"},
		{"unknown mode", "/whole/triangles" + w + "&mode=part", nil, 400, `unknown mode \"part\"`},
		{"compare without spec", "/whole/compare" + w, nil, 400, "compare needs a spec parameter"},
		// A body is nobody's input: the query string is the whole request.
		{"body on bfs", "/whole/bfs" + w + "&root=0", []byte(`{"root":-1}`), 200, ""},
		{"bad seed", "/whole/degrees?seed=-1&workers=1", nil, 400, "bad sub-request query"},
		{"missing seed", "/whole/triangles?workers=1", nil, 400, "bad sub-request query"},
		{"bad workers on pagerank", "/whole/pagerank?seed=1&workers=many", nil, 400, "bad sub-request query"},
		{"workers past int", "/whole/degrees?seed=1&workers=99999999999999999999", nil, 400, "bad sub-request query"},
		{"unknown graph", "/whole/degrees" + w, nil, 404, "no graph"},
		{"unknown graph, exact", "/whole/triangles" + w, nil, 404, "no graph"},
		{"unknown graph, bfs", "/whole/bfs" + w + "&root=0", nil, 404, "no graph"},
		// The compute route is reachable on its own: the row's Parse refuses
		// a directed graph as the public route does, not the engine's panic.
		{"directed triangles", "/whole/triangles" + w, nil, 422, "undirected"},
		{"directed approx", "/whole/triangles" + w + "&mode=approx", nil, 422, "undirected"},
		// No part route survives, whatever it asks for.
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
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code, body := do(t, "POST", ts.URL+"/internal/v1/graphs/"+name+tc.path, "application/octet-stream", tc.body)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("%s: serving it allocated %d bytes on a %d-vertex graph", tc.name, grew, n)
		}
		if code != tc.want || !strings.Contains(string(body), tc.wantErr) {
			t.Errorf("%s: status %d body %.120q, want %d mentioning %q", tc.name, code, body, tc.want, tc.wantErr)
		}
		// A route that does not exist is the mux's plain 404; every
		// compute route answers the JSON error shape.
		if tc.want != 200 && !strings.HasPrefix(tc.path, "/part/") && !bytes.HasPrefix(body, []byte(`{"error":`)) {
			t.Errorf("%s: error reply is not the JSON error shape: %.120q", tc.name, body)
		}
		if tc.want != 200 {
			continue
		}
		// A per-vertex vector is exactly n long, the degree histogram at
		// most n (largest degree + 1 bins), a count only scalars.
		width, want := 0, n
		switch {
		case strings.HasPrefix(tc.path, "/whole/bfs"):
			width = 4
		case strings.HasPrefix(tc.path, "/whole/pagerank"):
			width = 8
		case strings.HasPrefix(tc.path, "/whole/degrees"):
			width, want = 8, g.MaxDegree()+1
		case strings.HasPrefix(tc.path, "/whole/triangles"):
			width, want = 8, 0
		}
		if width == 0 {
			continue
		}
		if count, err := checkFrame(body, width, n); err != nil || count != want {
			t.Errorf("%s: reply is not a frame of %d elements: count %d, %v", tc.name, want, count, err)
		}
	}
}

// TestShardLoadRejectsBadWorkers pins the handleLoad bugfix: workers=abc
// used to load with 0 workers instead of failing.
func TestShardLoadRejectsBadWorkers(t *testing.T) {
	sh := mustShard(t, server.Options{})
	ts := httptest.NewServer(sh.Handler())
	defer ts.Close()
	var snap bytes.Buffer
	if _, err := graphio.WritePacked(&snap, gen.Path(5)); err != nil {
		t.Fatal(err)
	}
	code, body := do(t, "POST", ts.URL+"/internal/v1/graphs?name=g&workers=abc", "application/octet-stream", snap.Bytes())
	if code != http.StatusBadRequest || !strings.Contains(string(body), `bad workers \"abc\"`) {
		t.Fatalf("workers=abc: status %d: %s", code, body)
	}
	if code, _ := get(t, ts.URL+"/v1/graphs/g"); code != http.StatusNotFound {
		t.Fatalf("rejected load still created the graph: status %d", code)
	}
	if code, body := do(t, "POST", ts.URL+"/internal/v1/graphs?name=g&workers=2", "application/octet-stream", snap.Bytes()); code != http.StatusCreated {
		t.Fatalf("workers=2: status %d: %s", code, body)
	}
}

// TestShardLoadRefusesPermutedSnapshot: a replicated snapshot of either v2
// minor whose header declares a stored vertex permutation (flag 4) is a 400
// naming the permutation, and nothing is created.
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
		code, reply := do(t, "POST", ts.URL+"/internal/v1/graphs?name=g&workers=1", "application/octet-stream", body)
		want := fmt.Sprintf("version 2.%d stores a vertex permutation", h.Minor)
		if code != http.StatusBadRequest || !strings.Contains(string(reply), want) {
			t.Errorf("permuted v2.%d load: status %d, body %s; want 400 naming %q", h.Minor, code, reply, want)
		}
		if code, _ := get(t, ts.URL+"/v1/graphs/g"); code != http.StatusNotFound {
			t.Fatalf("the refused load created the graph: status %d", code)
		}
	}
}

// shortReplies serves a real shard, except that every whole-kernel reply is
// a well-formed frame one element short.
type shortReplies struct {
	inner http.Handler
	cut   atomic.Int64
}

func (s *shortReplies) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.Contains(r.URL.Path, "/whole/") {
		s.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	s.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if rec.Code == http.StatusOK {
		count := binary.LittleEndian.Uint32(body[4:]) - 1
		body = body[:frameSize(int(body[3]), int(count))]
		binary.LittleEndian.PutUint32(body[4:], count)
		s.cut.Add(1)
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(body)
}

// TestShortWholeReplyFailsOver pins the reply-length check: a whole-kernel
// reply that is a valid frame of fewer than n elements is a torn reply. It
// fails over to a replica that answers whole, and when no replica does the
// client gets a 502 — never a shorter answer.
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
	}
	for _, short := range []int{1, 3} {
		var shards []http.Handler
		var cutters []*shortReplies
		for i := range 3 {
			h := http.Handler(mustShard(t, server.Options{MaxWorkers: 4}).Handler())
			if i < short {
				s := &shortReplies{inner: h}
				cutters = append(cutters, s)
				h = s
			}
			shards = append(shards, h)
		}
		coord, front := frontOver(t, Options{Retry: resilience.RetryPolicy{BaseDelay: time.Millisecond}},
			server.Options{MaxWorkers: 4}, shards...)
		if _, err := coord.Create(t.Context(), "g", "", "test", g.Clone(), 1); err != nil {
			t.Fatal(err)
		}
		// Three rounds, so the rotation leads with every replica.
		for range 3 {
			for _, u := range urls {
				code, body := get(t, front.URL+u)
				if short < 3 {
					if _, want := get(t, sts.URL+u); code != http.StatusOK || !bytes.Equal(body, want) {
						t.Errorf("%d of 3 shards short, %s: status %d: %.200s\nwant %.200s", short, u, code, body, want)
					}
				} else if code != http.StatusBadGateway || !strings.Contains(string(body), "elements, want") {
					t.Errorf("every shard short, %s: status %d: %.200s; want a 502 naming the length", u, code, body)
				}
			}
		}
		for i, s := range cutters {
			if s.cut.Load() == 0 {
				t.Errorf("%d of 3 shards short: shard %d never sent a short reply", short, i)
			}
		}
	}
}
