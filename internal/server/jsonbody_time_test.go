//go:build !race

package server

import (
	"encoding/json"
	"testing"
	"time"

	"slimgraph/internal/gen"
	"slimgraph/internal/succinct"
	"slimgraph/internal/traverse"
)

// TestAppendedBFSBodyIsCheap: the point of appending a BFS body is its cost.
// On rmat14 (16 384 distances, read from the packed form) the append takes
// at most 0.35 of json.Marshal's time, the fastest of 15 interleaved runs of
// each compared, so that a load spike beside one run does not decide it.
// Excluded under -race, whose instrumentation weighs on the two unequally.
func TestAppendedBFSBodyIsCheap(t *testing.T) {
	g := succinct.Pack(gen.RMAT(14, 16, 0.57, 0.19, 0.19, 77), 0)
	res := traverse.BFS(g, 1, 1)
	r := &BFSResponse{Graph: "rmat14", Spec: "uniform:p=0.5", Root: 1, Reached: res.Reached(), Ecc: res.Ecc(), Dist: res.Dist}
	marshal, appended := time.Duration(1<<62), time.Duration(1<<62)
	for range 15 {
		start := time.Now()
		if _, err := json.Marshal(r); err != nil {
			t.Fatal(err)
		}
		marshal = min(marshal, time.Since(start))
		start = time.Now()
		if _, ok := r.appendJSON(nil); !ok {
			t.Fatal("the appender declined a finite body")
		}
		appended = min(appended, time.Since(start))
	}
	t.Logf("rmat14 BFS body: json.Marshal %v, appended %v", marshal, appended)
	if float64(appended) > 0.35*float64(marshal) {
		t.Errorf("appending the rmat14 BFS body took %v, json.Marshal %v: more than 0.35 of it", appended, marshal)
	}
}
