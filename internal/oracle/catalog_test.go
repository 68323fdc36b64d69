package oracle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/bits"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"slimgraph/internal/server"
	"slimgraph/internal/succinct"
)

// nameModel is what the model knows of one graph name.
type nameModel struct {
	info    server.GraphInfo     // what GET /v1/graphs lists while live
	req     server.CreateRequest // the live graph, raw, for a new reference
	live    bool
	deleted bool   // deleted and not created since
	bare    bool   // the live graph's sidecar is gone
	torn    bool   // an unattachable image lies under graphs/
	spilled uint16 // bit v: variant v (bit 15: a stray image) is under variants/<name>
}

// slot is one resident variant; evicting an attached one (faulted in from
// disk) writes nothing.
type slot struct {
	graph    string
	v        int
	attached bool
}

// sequence is one seeded op sequence: the node under test, its reference and
// the model both are checked against.
type sequence struct {
	t         *testing.T
	r         *rand.Rand
	opts      server.Options
	node, ref *server.Server
	m         map[string]*nameModel // every pool name
	lru       []slot                // resident variants, most recent first
	cache     server.CacheStats
	tier      server.TierStats
	log       []string // one entry per op, the last the current one
	kinds     map[string]int
}

var (
	pool    = []string{"a", "b", "c", "d"}
	specs   = []string{"uniform:p=0.5", "uniform:p=0.25", "spanner:k=4", "tr-eo:p=0.8"} // variant v: specs[v/2], seed 1+v%2
	opKinds = []string{"create", "race", "compress", "query", "delete", "recreate", "restart",
		"crash:tmp", "crash:torn", "crash:sidecar", "crash:orphan"}
	status  = map[bool]int{true: http.StatusOK, false: http.StatusNotFound} // by liveness
	elapsed = regexp.MustCompile(`"elapsedMs":[^,}]+`)
	unpacks atomic.Int64
)

// reply is one HTTP answer.
type reply struct {
	code int
	body []byte
}

func (r reply) String() string { return fmt.Sprintf("%d %s", r.code, r.body) }

// TestCatalogModel is the catalog model: seeded random op sequences against
// a server.New node with a data directory, 8 seeds × 300 ops (3 × 100 under
// -short) over every variant-cache capacity × memory budget pair, at one
// worker. Every answer is checked against a model of the catalog — per name:
// live or not, its policy, its files; per variant: resident (computed or
// faulted in), spilled or absent, in LRU order — and against a reference
// node without a data directory holding the same graphs raw.
func TestCatalogModel(t *testing.T) {
	seeds, ops := 8, 300
	if testing.Short() {
		seeds, ops = 3, 100
	}
	succinct.UnpackHook = func(*succinct.PackedGraph) { unpacks.Add(1) }
	defer func() { succinct.UnpackHook = nil }()
	for seed := 1; seed <= seeds; seed++ {
		opts := server.Options{CacheCapacity: 1 + seed%2, MemBudget: int64(seed / 2 % 2), MaxWorkers: 1, DataDir: t.TempDir()}
		t.Run(fmt.Sprintf("seed=%d,cache=%d,budget=%d", seed, opts.CacheCapacity, opts.MemBudget), func(t *testing.T) {
			d := &sequence{t: t, r: rand.New(rand.NewPCG(uint64(seed), 0)), opts: opts,
				m: map[string]*nameModel{}, kinds: map[string]int{}}
			for _, n := range pool {
				d.m[n] = &nameModel{}
			}
			for d.restart(); len(d.log) < ops; d.check() {
				d.step()
			}
			if len(d.kinds) != len(opKinds) {
				t.Errorf("the sequence lacks an op kind: %v", d.kinds)
			}
		})
	}
}

// step runs one op drawn among those that apply.
func (d *sequence) step() {
	free, hasFree := d.pick(func(g *nameModel) bool { return !g.live })
	dead, hasDead := d.pick(func(g *nameModel) bool { return g.deleted })
	bare, hasBare := d.pick(func(g *nameModel) bool { return g.live && !g.bare })
	ops := []struct {
		weight int
		ok     bool
		run    func()
	}{ // in opKinds order
		{4, true, func() { d.create(d.anyName(), 1) }},
		{2, hasFree, func() { d.create(free, 2) }},
		{4, true, d.compress},
		{8, true, d.query},
		{3, true, d.delete},
		{3, hasDead, func() { d.create(dead, 1) }},
		{1, true, d.restart},
		{2, true, func() { d.leave("graphs/x.sgp.tmp", d.image(3)); d.leave("variants/"+d.anyName()+"/x.sgp.tmp", nil) }},
		{2, hasFree, func() { d.m[free].torn = true; d.leave("graphs/"+free+".sgp", d.image(2)) }},
		{2, hasBare, func() { d.bare(bare) }},
		{2, hasFree, func() { d.orphan(free) }},
	}
	var bag []int
	for i, op := range ops {
		for j := 0; op.ok && j < op.weight; j++ {
			bag = append(bag, i)
		}
	}
	i := bag[d.r.IntN(len(bag))]
	d.kinds[opKinds[i]]++
	d.log = append(d.log, opKinds[i])
	if ops[i].run(); strings.HasPrefix(opKinds[i], "crash") {
		d.restart()
	}
}

func (d *sequence) anyName() string { return pool[d.r.IntN(len(pool))] }

// pick returns a random pool name whose model satisfies ok.
func (d *sequence) pick(ok func(*nameModel) bool) (string, bool) {
	c := slices.DeleteFunc(slices.Clone(pool), func(n string) bool { return !ok(d.m[n]) })
	if len(c) == 0 {
		return "", false
	}
	return c[d.r.IntN(len(c))], true
}

// target is a live name nine times in ten, any pool name otherwise.
func (d *sequence) target() (string, *nameModel) {
	n, ok := d.pick(func(g *nameModel) bool { return g.live })
	if !ok || d.r.IntN(10) == 0 {
		n = d.anyName()
	}
	return n, d.m[n]
}

func (d *sequence) fail(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("op %d: %s\nthe sequence's last ops: %s", len(d.log), fmt.Sprintf(format, args...),
		strings.Join(d.log[max(0, len(d.log)-30):], " → "))
}

func call(s *server.Server, method, path string, body any) reply {
	b, _ := json.Marshal(body)
	req := httptest.NewRequest(method, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return reply{w.Code, w.Body.Bytes()}
}

func decode[T any](d *sequence, body []byte) (v T) {
	if err := json.Unmarshal(body, &v); err != nil {
		d.fail("decoding %s: %v", body, err)
	}
	return v
}

// both sends one request to the node and to the reference: both must answer
// want, and a 200 byte-identically but for elapsed times.
func (d *sequence) both(method, path string, body any, want int) []byte {
	d.log[len(d.log)-1] += " " + path
	got, ref := call(d.node, method, path, body), call(d.ref, method, path, body)
	if got.code != want || ref.code != want {
		d.fail("%s %s: status %d, reference %d, model %d: %s", method, path, got.code, ref.code, want, got.body)
	}
	if want == http.StatusOK && !bytes.Equal(elapsed.ReplaceAll(got.body, nil), elapsed.ReplaceAll(ref.body, nil)) {
		d.fail("%s %s: body differs from the reference's\nnode:      %s\nreference: %s", method, path, got.body, ref.body)
	}
	return got.body
}

// create sends racers creates of one name at once. On a live name each is
// refused; on a free one exactly one is acknowledged, and the name holds
// its graph, which the reference then holds raw.
func (d *sequence) create(name string, racers int) {
	reqs, got, done := make([]server.CreateRequest, racers), make([]reply, racers), make(chan int)
	for i := range reqs {
		reqs[i] = server.CreateRequest{Name: name, Gen: "communities", NumVertices: 100 + i*100 + d.r.IntN(200/racers),
			Seed: d.r.Uint64N(1000), Weighted: d.r.IntN(2) == 0, Memory: []string{server.MemoryRaw, server.MemoryPacked}[d.r.IntN(2)]}
		d.log[len(d.log)-1] += fmt.Sprintf(" %s(n=%d,seed=%d,%s)", name, reqs[i].NumVertices, reqs[i].Seed, reqs[i].Memory)
	}
	for i := range reqs {
		go func() { got[i] = call(d.node, "POST", "/v1/graphs", reqs[i]); done <- i }()
	}
	acked, codes := 1, map[int]int{}
	if d.m[name].live {
		acked = 0
	}
	for range reqs {
		codes[got[<-done].code]++
	}
	if codes[http.StatusCreated] != acked || codes[http.StatusConflict] != racers-acked {
		d.fail("creates of %q answered %v", name, got)
	}
	w := slices.IndexFunc(got, func(r reply) bool { return r.code == http.StatusCreated })
	if w < 0 {
		return
	}
	raw := reqs[w]
	raw.Memory = server.MemoryRaw
	ref := call(d.ref, "POST", "/v1/graphs", raw)
	g := &nameModel{info: decode[server.GraphInfo](d, ref.body), req: raw, live: true}
	g.info.Memory, g.info.Residency = reqs[w].Memory, reqs[w].Memory
	if d.opts.MemBudget > 0 {
		d.tier.GraphSpills++
		g.info.Residency = server.ResidencyMapped
	}
	if info := decode[server.GraphInfo](d, got[w].body); ref.code != http.StatusCreated || info != g.info {
		d.fail("create answered %s, model %+v", got[w].body, g.info)
	}
	d.m[name] = g
}

// touch predicts a lookup of variant v of a live graph: a hit moves its
// slot to the front; a miss faults a spilled file in or computes, and an
// overflow evicts the LRU slot, which is spilled when it was computed.
func (d *sequence) touch(name string, v int) {
	if i := slices.IndexFunc(d.lru, func(s slot) bool { return s.graph == name && s.v == v }); i >= 0 {
		s := d.lru[i]
		d.lru = slices.Insert(slices.Delete(d.lru, i, i+1), 0, s)
		d.cache.Hits++
		return
	}
	d.cache.Misses++
	d.cache.Executions++
	s := slot{name, v, d.m[name].spilled&(1<<v) != 0}
	if s.attached {
		d.tier.VariantFaultIns++
	}
	if d.lru = slices.Insert(d.lru, 0, s); len(d.lru) > d.opts.CacheCapacity {
		ev := d.lru[len(d.lru)-1]
		d.lru = d.lru[:len(d.lru)-1]
		d.cache.Evictions++
		if !ev.attached {
			d.tier.VariantSpills++
			d.m[ev.graph].spilled |= 1 << ev.v
		}
	}
}

func (d *sequence) compress() {
	name, g := d.target()
	v := d.r.IntN(2 * len(specs))
	if g.live {
		d.touch(name, v)
	}
	d.log[len(d.log)-1] += fmt.Sprintf(" %s seed=%d", specs[v/2], 1+v%2)
	d.both("POST", "/v1/graphs/"+name+"/compress", server.CompressRequest{Spec: specs[v/2], Seed: uint64(1 + v%2)}, status[g.live])
}

func (d *sequence) query() {
	name, g := d.target()
	q := url.Values{"seed": {fmt.Sprint(1 + d.r.IntN(2))}}
	route := []string{"bfs", "degrees", "pagerank", "triangles", "triangles", "compare"}[d.r.IntN(6)]
	switch {
	case route == "bfs" && g.live:
		q.Set("root", fmt.Sprint(d.r.IntN(g.info.N)))
	case route == "pagerank":
		q.Set("k", fmt.Sprint(1+d.r.IntN(10)))
	case route == "triangles" && d.r.IntN(2) == 0:
		q.Set("mode", "approx")
		q.Set("p", "0.5")
	}
	if route == "compare" || d.r.IntN(2) == 0 {
		v := d.r.IntN(2 * len(specs))
		q.Set("spec", specs[v/2])
		q.Set("seed", fmt.Sprint(1+v%2))
		if g.live {
			d.touch(name, v)
		}
	}
	d.both("GET", "/v1/graphs/"+name+"/"+route+"?"+q.Encode(), nil, status[g.live])
}

func (d *sequence) delete() {
	name, g := d.target()
	n := len(d.lru)
	d.lru = slices.DeleteFunc(d.lru, func(s slot) bool { return s.graph == name })
	body := d.both("DELETE", "/v1/graphs/"+name, nil, status[g.live])
	if want := fmt.Sprintf(`{"deleted":%q,"variantsDropped":%d}`+"\n", name, n-len(d.lru)); g.live && string(body) != want {
		d.fail("DELETE answered %s, model %s", body, want)
	}
	if g.live {
		d.m[name] = &nameModel{deleted: true}
	}
}

// restart brings a new node up on the data directory, and a new reference
// holding the live graphs: the node attaches exactly those, mapped (which
// check reads off /v1/graphs and /v1/stats).
func (d *sequence) restart() {
	var err error
	if d.node, err = server.New(d.opts); err != nil {
		d.fail("restart: %v", err)
	}
	d.ref, _ = server.New(server.Options{CacheCapacity: d.opts.CacheCapacity, MaxWorkers: 1})
	d.lru, d.cache, d.tier = nil, server.CacheStats{}, server.TierStats{}
	for _, n := range pool {
		if g := d.m[n]; g.live {
			d.tier.Attached++
			call(d.ref, "POST", "/v1/graphs", g.req)
			g.info.Residency = server.ResidencyMapped
		}
	}
}

// leave writes a file a kill or an outside force can leave behind; every
// crash op ends in a restart over what it left.
func (d *sequence) leave(rel string, data []byte) {
	d.log[len(d.log)-1] += " " + rel
	path := filepath.Join(d.opts.DataDir, rel)
	if os.MkdirAll(filepath.Dir(path), 0o755) != nil || os.WriteFile(path, data, 0o644) != nil {
		d.fail("writing %s", path)
	}
}

// image is the first 1/den of a live graph's snapshot, or junk.
func (d *sequence) image(den int) []byte {
	if n, ok := d.pick(func(g *nameModel) bool { return g.live }); ok {
		b, _ := os.ReadFile(filepath.Join(d.opts.DataDir, "graphs", n+".sgp"))
		return b[:len(b)/den]
	}
	return []byte("not a snapshot")
}

// bare removes a graph's sidecar: it comes back raw, of unknown provenance.
func (d *sequence) bare(name string) {
	d.log[len(d.log)-1] += " " + name
	os.Remove(filepath.Join(d.opts.DataDir, "graphs", name+".json"))
	g := d.m[name]
	g.bare, g.info.Memory, g.info.Source = true, server.MemoryRaw, "restored"
}

// orphan files another name's spilled variants (or, with none, a graph
// image) under a name without a graph.
func (d *sequence) orphan(name string) {
	src, ok := d.pick(func(g *nameModel) bool { return g != d.m[name] && g.spilled != 0 })
	if !ok {
		d.m[name].spilled |= 1 << 15
		d.leave("variants/"+name+"/0000000000000000.sgp", d.image(1))
		return
	}
	ents, _ := os.ReadDir(filepath.Join(d.opts.DataDir, "variants", src))
	for _, e := range ents {
		b, _ := os.ReadFile(filepath.Join(d.opts.DataDir, "variants", src, e.Name()))
		d.leave("variants/"+name+"/"+e.Name(), b)
	}
	d.m[name].spilled |= d.m[src].spilled
}

// check compares the node's catalog, counters and files with the model.
func (d *sequence) check() {
	if n := unpacks.Load(); n != 0 {
		d.fail("%d succinct.Unpack calls: the tier serves snapshots in place", n)
	}
	var list []server.GraphInfo
	files, got, mapped := map[string]int{}, map[string]int{}, false
	for _, n := range pool {
		g := d.m[n]
		if g.live {
			list = append(list, g.info)
			mapped = mapped || g.info.Residency == server.ResidencyMapped
		}
		if g.live || g.torn {
			files["graphs/"+n+".sgp"]++
		}
		if g.live && !g.bare {
			files["graphs/"+n+".json"]++
		}
		if g.spilled != 0 {
			files["variants/"+n] = bits.OnesCount16(g.spilled)
		}
	}
	if body := call(d.node, "GET", "/v1/graphs", nil).body; !slices.Equal(decode[[]server.GraphInfo](d, body), list) {
		d.fail("/v1/graphs answered %s, model %+v", body, list)
	}
	body := call(d.node, "GET", "/v1/stats", nil).body
	st := decode[server.StatsResponse](d, body)
	d.cache.Entries, d.cache.Capacity = len(d.lru), d.opts.CacheCapacity
	want := d.tier
	if st.Tier != nil {
		want.HeapBytes, want.MappedBytes = st.Tier.HeapBytes, st.Tier.MappedBytes
	}
	want.DataDir, want.MemBudgetBytes = d.opts.DataDir, d.opts.MemBudget
	if st.Cache != d.cache || st.Graphs != len(list) || st.Tier == nil || *st.Tier != want ||
		(d.opts.MemBudget > 0 && want.HeapBytes != 0) || mapped != (want.MappedBytes > 0) {
		d.fail("/v1/stats answered %s, model cache %+v, tier %+v", body, d.cache, want)
	}
	filepath.Walk(d.opts.DataDir, func(path string, fi os.FileInfo, _ error) error {
		if rel, _ := filepath.Rel(d.opts.DataDir, path); !fi.IsDir() && strings.HasPrefix(rel, "variants") {
			got[filepath.Dir(rel)]++
		} else if !fi.IsDir() {
			got[rel]++
		}
		return nil
	})
	if !maps.Equal(got, files) {
		d.fail("the data directory holds %v, model %v", got, files)
	}
}
