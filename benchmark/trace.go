package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// operation share OpID; Parent is the index of the causing span in the
// trace file, -1 for an operation's root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced pass runs the same code path.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(name string, parent, opID int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, OpID: opID})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children may nest, abut or overlap one
// another (parallel calls); the covered part is the union of their
// intervals clipped to the parent's.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		iv := children[i]
		if len(iv) == 0 {
			continue
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered int64
		curLo, curHi := int64(0), int64(-1)
		flush := func() {
			if curHi > curLo {
				covered += curHi - curLo
			}
		}
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if curHi < curLo || lo > curHi {
				flush()
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		flush()
		self[i] -= covered
	}
	return self
}

// selfTimeGap returns the largest relative difference, over all operations,
// between an operation's root span and the sum of the self times of every
// span in its tree — the trace-consistency figure the acceptance criteria
// bound at 5%.
func selfTimeGap(spans []span) float64 {
	self := selfTimes(spans)
	root := make([]int, len(spans))
	for i, s := range spans {
		if s.Parent < 0 || s.Parent >= i {
			root[i] = i
		} else {
			root[i] = root[s.Parent]
		}
	}
	sum := make(map[int]int64)
	for i := range spans {
		sum[root[i]] += self[i]
	}
	worst := 0.0
	for r, total := range sum {
		d := spans[r].End - spans[r].Start
		if d <= 0 {
			continue
		}
		gap := float64(total-d) / float64(d)
		if gap < 0 {
			gap = -gap
		}
		if gap > worst {
			worst = gap
		}
	}
	return worst
}

// writeTrace writes the spans as one JSON document.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
