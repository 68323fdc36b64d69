package main

import (
	"reflect"
	"testing"
)

func testConfig(t *testing.T, seed uint64) config {
	t.Helper()
	return config{seed: seed, seconds: 0.2, scale: 8, procs: 2, outDir: t.TempDir()}
}

// The operation sequence is a pure function of the seed: same seed, same
// sequence; every block holds the exact class counts; another seed moves
// the roots.
func TestOpSequenceDeterminism(t *testing.T) {
	for _, workload := range []string{wMapped, wChurn, wCluster} {
		a, b, c := newMixer(testConfig(t, 1), workload), newMixer(testConfig(t, 1), workload), newMixer(testConfig(t, 2), workload)
		for _, m := range []*mixer{a, b, c} {
			if err := m.makeTwins(); err != nil {
				t.Fatal(err)
			}
		}
		for blk := 0; blk < 3; blk++ {
			x, y := a.block(blk), b.block(blk)
			if !reflect.DeepEqual(x, y) {
				t.Fatalf("%s block %d differs between two mixers of one seed", workload, blk)
			}
			counts := map[string]int{}
			for _, o := range x {
				counts[o.class]++
			}
			for _, cc := range blockMix[workload] {
				if counts[cc.class] != cc.count {
					t.Errorf("%s block %d: %d %s operations, want %d", workload, blk, counts[cc.class], cc.class, cc.count)
				}
				delete(counts, cc.class)
			}
			if len(counts) != 0 {
				t.Errorf("%s block %d: undeclared classes %v", workload, blk, counts)
			}
		}
		if reflect.DeepEqual(a.block(0), a.block(1)) {
			t.Errorf("%s: blocks 0 and 1 are identical", workload)
		}
		if reflect.DeepEqual(a.roots, c.roots) {
			t.Errorf("%s: seeds 1 and 2 drew the same roots", workload)
		}
		if reflect.DeepEqual(a.block(0), c.block(0)) {
			t.Errorf("%s: seeds 1 and 2 produced the same first block", workload)
		}
	}
}

// serve-churn's sequence never deletes an upload before creating it, never
// reuses a compression seed, and only reads variants already sequenced.
func TestChurnSequenceIsConsistent(t *testing.T) {
	m := newMixer(testConfig(t, 3), wChurn)
	if err := m.makeTwins(); err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for i := 0; i < churnLiveTmp; i++ {
		live[tmpName(i)] = true
	}
	compressed := churnWarmSeeds
	seeds := map[uint64]bool{}
	for blk := 0; blk < 20; blk++ {
		for _, o := range m.block(blk) {
			switch o.kind {
			case kindCreate:
				if live[o.graph] {
					t.Fatalf("block %d creates %s twice", blk, o.graph)
				}
				live[o.graph] = true
			case kindDelete:
				if !live[o.graph] {
					t.Fatalf("block %d deletes %s before its create", blk, o.graph)
				}
				delete(live, o.graph)
			case kindCompress:
				if o.ordinal != compressed || seeds[o.seed] {
					t.Fatalf("block %d: compression ordinal %d seed %d out of order or repeated", blk, o.ordinal, o.seed)
				}
				seeds[o.seed] = true
				compressed++
			case kindDynamic:
				if o.ordinal >= compressed || o.ordinal < compressed-churnWarmSeeds {
					t.Fatalf("block %d: bfs-variant reads compression %d with %d sequenced", blk, o.ordinal, compressed)
				}
			}
		}
		if len(live) != churnLiveTmp {
			t.Fatalf("block %d leaves %d uploads live, want %d", blk, len(live), churnLiveTmp)
		}
	}
}

func TestRootsAvoidIsolatedVertices(t *testing.T) {
	cfg := testConfig(t, 1)
	g := cfg.rmat(0)
	for _, v := range cfg.roots(64, g) {
		if g.Degree(v) == 0 {
			t.Fatalf("root %d is isolated", v)
		}
	}
}
