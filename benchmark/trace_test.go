package main

import "testing"

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},      // 0
		{Name: "a", Start: 10, End: 40, Parent: 0},        // 1: child
		{Name: "a.inner", Start: 15, End: 25, Parent: 1},  // 2: grandchild, must not be subtracted from op twice
		{Name: "b", Start: 30, End: 60, Parent: 0},        // 3: overlaps a by 10
		{Name: "c", Start: 60, End: 70, Parent: 0},        // 4: abuts b
		{Name: "late", Start: 90, End: 120, Parent: 0},    // 5: runs past its parent, clipped to 100
		{Name: "other", Start: 200, End: 230, Parent: -1}, // 6: a second operation
	}
	want := []int64{
		100 - (60 /* a∪b∪c = [10,70) */ + 10 /* late clipped to [90,100) */),
		30 - 10, 10, 30, 10, 30, 30,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimesSumToTheOperation(t *testing.T) {
	// Sequential, properly nested children: the self times of an
	// operation's tree add up to its root span exactly.
	spans := []span{
		{Name: "op", Start: 0, End: 1000, Parent: -1, OpID: 1},
		{Name: "do", Start: 5, End: 700, Parent: 0, OpID: 1},
		{Name: "read", Start: 700, End: 900, Parent: 0, OpID: 1},
		{Name: "verify", Start: 905, End: 990, Parent: 0, OpID: 1},
		{Name: "hash", Start: 910, End: 950, Parent: 3, OpID: 1},
	}
	if gap := selfTimeGap(spans); gap != 0 {
		t.Errorf("gap = %g, want 0", gap)
	}
	// A child that escapes its parent breaks the sum, and the gap shows it.
	spans[4].End = 1200
	if gap := selfTimeGap(spans); gap == 0 {
		t.Error("a child outliving its parent must show as a gap")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 || tr.snapshot() != nil {
		t.Errorf("nil tracer returned id %d, spans %v", id, tr.snapshot())
	}
	real := newTracer()
	root := real.begin("op", -1, 7)
	child := real.begin("call", root, 7)
	real.end(child)
	real.end(root)
	got := real.snapshot()
	if len(got) != 2 || got[1].Parent != 0 || got[1].OpID != 7 || got[0].End < got[1].End {
		t.Errorf("unexpected spans %+v", got)
	}
}
