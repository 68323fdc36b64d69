package obs

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "help"); again != c {
		t.Fatalf("re-registering the same (name, labels) returned a different counter")
	}
	g := r.Gauge("g", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 99, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le semantics: v <= bound. 0.5,1 -> le=1; 5,10 -> le=10; 99 -> le=100;
	// 1000 -> +Inf.
	want := []int64{2, 2, 1, 1}
	if !reflect.DeepEqual(s.Counts, want) {
		t.Fatalf("bucket counts = %v, want %v", s.Counts, want)
	}
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Sum != 0.5+1+5+10+99+1000 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

// snapshotFrom builds a snapshot by observing values into a fresh histogram.
func snapshotFrom(bounds []float64, values ...float64) HistogramSnapshot {
	h := newHistogram(bounds)
	for _, v := range values {
		h.Observe(v)
	}
	return h.Snapshot()
}

func TestHistogramMergeCommutativeAssociative(t *testing.T) {
	bounds := []float64{0.25, 1, 4}
	// Binary-exact values (multiples of 0.25) make float sums associative
	// here, so snapshot equality is exact in every merge order.
	a := snapshotFrom(bounds, 0.25, 0.5, 8)
	b := snapshotFrom(bounds, 1, 1.25)
	c := snapshotFrom(bounds, 0.75, 2, 16, 0.25)

	ab, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := b.Merge(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ab, ba) {
		t.Fatalf("merge not commutative:\n a+b=%+v\n b+a=%+v", ab, ba)
	}
	abc1, err := ab.Merge(c)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := b.Merge(c)
	if err != nil {
		t.Fatal(err)
	}
	abc2, err := a.Merge(bc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(abc1, abc2) {
		t.Fatalf("merge not associative:\n (a+b)+c=%+v\n a+(b+c)=%+v", abc1, abc2)
	}
	if abc1.Count != 9 {
		t.Fatalf("merged count = %d, want 9", abc1.Count)
	}
}

func TestHistogramMergeIdentityAndMismatch(t *testing.T) {
	a := snapshotFrom([]float64{1, 2}, 0.5, 3)
	id, err := (HistogramSnapshot{}).Merge(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(id, a) {
		t.Fatalf("zero-value snapshot is not a merge identity")
	}
	b := snapshotFrom([]float64{1, 5}, 0.5)
	if _, err := a.Merge(b); err == nil {
		t.Fatal("merging snapshots with different bounds should error")
	}
	c := snapshotFrom([]float64{1, 2, 3}, 0.5)
	if _, err := a.Merge(c); err == nil {
		t.Fatal("merging snapshots with different bucket counts should error")
	}
}

// parseExposition splits the text format into per-family chunks and checks
// global invariants: every sample is preceded by its family's HELP and TYPE
// lines (in that order), and families appear sorted by name.
func parseExposition(t *testing.T, text string) map[string][]string {
	t.Helper()
	fams := map[string][]string{}
	var order []string
	current := ""
	sawHelp, sawType := false, false
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := strings.Fields(line)[2]
			current, sawHelp, sawType = name, true, false
			order = append(order, name)
		case strings.HasPrefix(line, "# TYPE "):
			name := strings.Fields(line)[2]
			if name != current || !sawHelp {
				t.Fatalf("TYPE line for %q not directly under its HELP (current %q)", name, current)
			}
			sawType = true
		default:
			if !sawHelp || !sawType {
				t.Fatalf("sample before HELP/TYPE: %q", line)
			}
			base := strings.SplitN(line, "{", 2)[0]
			base = strings.SplitN(base, " ", 2)[0]
			base = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(base, "_bucket"), "_sum"), "_count")
			if base != current {
				t.Fatalf("sample %q under family %q", line, current)
			}
			fams[current] = append(fams[current], line)
		}
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("families not sorted: %q before %q", order[i-1], order[i])
		}
	}
	return fams
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_req_total", "requests", Label{Key: "endpoint", Value: "GET /x"}).Add(3)
	r.Counter("zz_req_total", "requests", Label{Key: "endpoint", Value: "GET /y"}).Add(1)
	r.GaugeFunc("aa_temp", "a func gauge", func() float64 { return 1.5 })
	h := r.Histogram("mm_lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	fams := parseExposition(t, text)

	if got := fams["zz_req_total"]; len(got) != 2 {
		t.Fatalf("zz_req_total series = %v, want 2", got)
	}
	if !strings.Contains(text, `zz_req_total{endpoint="GET /x"} 3`) {
		t.Fatalf("missing labeled counter sample in:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE zz_req_total counter") ||
		!strings.Contains(text, "# TYPE aa_temp gauge") ||
		!strings.Contains(text, "# TYPE mm_lat_seconds histogram") {
		t.Fatalf("missing TYPE lines in:\n%s", text)
	}
	if !strings.Contains(text, "aa_temp 1.5") {
		t.Fatalf("missing func gauge sample in:\n%s", text)
	}

	// Histogram exposition: cumulative buckets, monotone, +Inf == count.
	wantLines := []string{
		`mm_lat_seconds_bucket{le="0.1"} 1`,
		`mm_lat_seconds_bucket{le="1"} 2`,
		`mm_lat_seconds_bucket{le="+Inf"} 3`,
		`mm_lat_seconds_count 3`,
	}
	for _, want := range wantLines {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
	prev := int64(-1)
	for _, line := range fams["mm_lat_seconds"] {
		if !strings.Contains(line, "_bucket{") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("parsing bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not monotone at %q", line)
		}
		prev = v
	}
}

func TestExpositionLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "has \\ and\nnewline",
		Label{Key: "v", Value: "he said \"hi\"\nback\\slash"}).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, `# HELP esc_total has \\ and\nnewline`) {
		t.Fatalf("HELP not escaped:\n%s", text)
	}
	if !strings.Contains(text, `esc_total{v="he said \"hi\"\nback\\slash"} 1`) {
		t.Fatalf("label value not escaped:\n%s", text)
	}
	// No raw newline may survive inside any single line.
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.Contains(line, "he said \"hi\"") {
			t.Fatalf("unescaped quote in line %q", line)
		}
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("conc_total", "h", Label{Key: "w", Value: string(rune('a' + i%4))}).Inc()
				r.Histogram("conc_seconds", "h", nil).Observe(float64(j) * 0.001)
				var sb strings.Builder
				_ = r.WritePrometheus(&sb)
			}
		}(i)
	}
	wg.Wait()
	total := int64(0)
	for _, l := range []string{"a", "b", "c", "d"} {
		total += r.Counter("conc_total", "h", Label{Key: "w", Value: l}).Value()
	}
	if total != 8*200 {
		t.Fatalf("lost increments: %d, want %d", total, 8*200)
	}
	if s := r.Histogram("conc_seconds", "h", nil).Snapshot(); s.Count != 8*200 {
		t.Fatalf("lost observations: %d, want %d", s.Count, 8*200)
	}
}
