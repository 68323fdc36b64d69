package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"slimgraph/internal/cluster"
	"slimgraph/internal/graph"
	"slimgraph/internal/graphio"
	"slimgraph/internal/obs"
	"slimgraph/internal/server"
)

// churnMemBudget is half the heap the six-graph serve-churn catalog reports
// unbudgeted at the pinned scale (six raw RMAT(14,16) CSRs are 6 x 5.23 MB
// by slimgraph_catalog_raw_bytes). It is a constant so that a change to the
// size estimate moves resident_mb and the spill counters instead of silently
// moving the budget with it.
const churnMemBudget = 15_700_000

// churnCacheCapacity is small enough that fresh-seed compressions evict.
const churnCacheCapacity = 16

// target is a running system under test.
type target struct {
	url     string
	front   *obs.Registry   // the client-facing HTTP surface's registry
	engines []*obs.Registry // every Local engine's registry (one, or one per shard)
	dataDir string
	stops   []func()
}

func (t *target) close() {
	for i := len(t.stops) - 1; i >= 0; i-- {
		t.stops[i]()
	}
}

// serve puts h on an ephemeral loopback port. stop shuts the server down
// and returns once its goroutine has ended.
func serve(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // always returns ErrServerClosed after Shutdown
	}()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close()
		}
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// served drives one of the three served workloads.
type served struct {
	cfg      config
	workload string
	mx       *mixer
	ref      *server.Server // in-memory raw engine holding the same graph names
	hc       *http.Client
	tgt      *target
	// created holds, per upload name, a channel closed once its create has
	// completed, so a delete never overtakes the create it undoes.
	created *sync.Map
	// nextBlock is where the next pass continues the sequence; serve-churn's
	// upload names and compression seeds must not repeat within one set-up.
	nextBlock int
	// sink for sampled dynamic answers, checked after the pass.
	sampledMu sync.Mutex
	sampled   []sampledAnswer
}

type sampledAnswer struct {
	o    op
	hash [32]byte // kindDynamic
	m    int      // kindCompress
}

func newServed(cfg config, workload string) *served {
	return &served{
		cfg: cfg, workload: workload, created: &sync.Map{},
		hc: &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxIdleConns: cfg.procs + 1, MaxIdleConnsPerHost: cfg.procs + 1,
				DisableCompression: true,
			},
		},
	}
}

// --- reference ---------------------------------------------------------------

// reference builds the in-memory raw engine and the expected hash of every
// static request. This is harness work, excluded from setup_s.
func (s *served) reference() error {
	s.mx = newMixer(s.cfg, s.workload)
	if s.workload == wChurn {
		if err := s.mx.makeTwins(); err != nil {
			return err
		}
	}
	ref, err := server.New(server.Options{})
	if err != nil {
		return err
	}
	for _, g := range s.mx.graphs {
		if err := ref.AddGraph(g.name, server.MemoryRaw, "reference", g.g, 1); err != nil {
			return err
		}
	}
	s.ref = ref
	for _, p := range s.mx.staticPaths() {
		status, body := s.refDo("GET", p, nil, "")
		if status != http.StatusOK {
			return fmt.Errorf("reference %s: status %d: %s", p, status, body)
		}
		s.mx.expect[p] = sha256.Sum256(body)
	}
	return nil
}

// refDo sends one request into the reference engine's handler.
func (s *served) refDo(method, path string, body []byte, ctype string) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	rec := httptest.NewRecorder()
	s.ref.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// --- set-up --------------------------------------------------------------------

// upload posts g as a binary snapshot image: parse, pack, and (with a data
// directory) servable write, fsync and rename on the server side.
func (s *served) upload(url, name, memory string, image []byte) error {
	status, body, err := s.send("POST", url+"/v1/graphs?name="+name+"&memory="+memory, image, "application/octet-stream")
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("creating %s: status %d: %s", name, status, body)
	}
	return nil
}

func binaryImage(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := graphio.WriteBinary(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// send is the untimed request helper of set-up and the post-pass readings.
func (s *served) send(method, url string, body []byte, ctype string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// setUp brings the system under test up from nothing to warm: generate,
// start, create (pack, persist, replicate), restart where the workload
// calls for it, and one warm-up request of every class so triangle arenas
// and variants exist before timing starts. On an error the caller still
// calls tearDown.
func (s *served) setUp() error {
	t := &target{}
	s.tgt = t
	// Generation is part of set-up, so the graphs are generated again here
	// instead of reusing the mixer's copies.
	graphs := catalogGraphs(s.cfg, s.workload)
	switch s.workload {
	case wMapped, wChurn:
		dir, err := os.MkdirTemp(s.cfg.outDir, s.workload+"-")
		if err != nil {
			return err
		}
		t.dataDir = dir
		t.stops = append(t.stops, func() { os.RemoveAll(dir) })
		opts := server.Options{DataDir: dir}
		if s.workload == wChurn {
			opts.CacheCapacity = churnCacheCapacity
			opts.MemBudget = churnMemBudget
		}
		srv, url, stop, err := startNode(opts)
		if err != nil {
			return err
		}
		if err := s.createAll(url, graphs); err != nil {
			stop()
			return err
		}
		if s.workload == wMapped {
			// Restart over the same directory: every graph re-attaches
			// memory-mapped, the state a production node is in after a
			// deploy.
			stop()
			if srv, url, stop, err = startNode(opts); err != nil {
				return err
			}
			if got := len(srv.Local().Attached()); got != len(graphs) {
				stop()
				return fmt.Errorf("restart attached %d graphs, want %d", got, len(graphs))
			}
		}
		t.url, t.front, t.engines = url, srv.Registry(), []*obs.Registry{srv.Registry()}
		t.stops = append(t.stops, stop)
	case wCluster:
		lc, err := cluster.StartLocal(3, server.Options{}, cluster.Options{})
		if err != nil {
			return err
		}
		t.stops = append(t.stops, lc.Close)
		url, stop, err := serve(lc.Front.Handler())
		if err != nil {
			return err
		}
		t.stops = append(t.stops, stop)
		t.url, t.front = url, lc.Front.Registry()
		for i := 0; i < lc.NumShards(); i++ {
			t.engines = append(t.engines, lc.Shard(i).Server().Registry())
		}
		if err := s.createAll(url, graphs); err != nil {
			return err
		}
	}
	return s.warmUp()
}

// tearDown stops the system under test and removes its data.
func (s *served) tearDown() {
	if s.tgt != nil {
		s.tgt.close()
		s.tgt = nil
	}
	s.hc.CloseIdleConnections()
}

func startNode(opts server.Options) (*server.Server, string, func(), error) {
	srv, err := server.New(opts)
	if err != nil {
		return nil, "", nil, err
	}
	url, stop, err := serve(srv.Handler())
	return srv, url, stop, err
}

func (s *served) createAll(url string, graphs []namedGraph) error {
	for _, g := range graphs {
		image, err := binaryImage(g.g)
		if err != nil {
			return err
		}
		if err := s.upload(url, g.name, g.memory, image); err != nil {
			return err
		}
	}
	return nil
}

// warmUp issues the requests that make lazy state exist. Its answers are
// checked like any other; a wrong one fails the run.
func (s *served) warmUp() error {
	s.created, s.nextBlock = &sync.Map{}, 0
	var ops []op
	if s.workload == wChurn {
		for c := 0; c < churnWarmSeeds; c++ {
			ops = append(ops, s.mx.compressOp(c))
		}
		for i := 0; i < churnLiveTmp; i++ {
			ops = append(ops, s.mx.createOp(i))
		}
		for i, g := range s.mx.graphs {
			ops = append(ops, s.mx.hashOp("bfs", pathBFS(g.name, s.mx.roots[i][0])))
		}
	} else {
		seen := map[string]bool{}
		for _, o := range s.mx.block(0) {
			if !seen[o.class] {
				seen[o.class] = true
				ops = append(ops, o)
			}
		}
	}
	res := newPhaseResult()
	var buf bytes.Buffer
	for i := range ops {
		s.exec(&ops[i], i, &buf, res, nil)
	}
	s.checkSampled(res)
	if res.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %s", res.failed, res.attempted, strings.Join(res.notes, "; "))
	}
	return nil
}

// --- the closed loop ---------------------------------------------------------------

// dispatcher hands the pre-generated sequence to the clients, block by
// block, and stops at the first block boundary past the deadline so every
// pass measures whole blocks of the exact class mix.
type dispatcher struct {
	mu       sync.Mutex
	s        *served
	deadline time.Time
	block    int // next block of the sequence
	blocks   int // blocks handed out in this pass
	cur      []op
	idx      int
	issued   int
}

func (d *dispatcher) next() (*op, int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.idx == len(d.cur) {
		if d.blocks > 0 && !time.Now().Before(d.deadline) {
			return nil, 0, false
		}
		d.cur, d.idx = d.s.mx.block(d.block), 0
		d.block++
		d.blocks++
	}
	o := &d.cur[d.idx]
	d.idx++
	d.issued++
	if o.kind == kindCreate {
		d.s.created.Store(o.graph, make(chan struct{}))
	}
	return o, d.issued, true
}

// pass runs the closed loop for dur: cfg.procs clients, one keep-alive
// connection each, every client sending its next request only after the
// previous answer arrived.
func (s *served) pass(dur time.Duration, tr *tracer) (*phaseResult, error) {
	res := newPhaseResult()
	start := time.Now()
	d := &dispatcher{s: s, deadline: start.Add(dur), block: s.nextBlock}
	var wg sync.WaitGroup
	for c := 0; c < s.cfg.procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := newPhaseResult()
			var buf bytes.Buffer
			for {
				o, id, ok := d.next()
				if !ok {
					break
				}
				s.exec(o, id, &buf, local, tr)
			}
			res.merge(local)
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	s.nextBlock = d.block
	t0 := time.Now()
	s.checkSampled(res)
	res.referenceS += time.Since(t0).Seconds()
	return res, nil
}

// exec sends one operation, records its client-observed latency (request
// written to last body byte read), and checks the answer.
func (s *served) exec(o *op, id int, buf *bytes.Buffer, res *phaseResult, tr *tracer) {
	if o.kind == kindDelete {
		if ch, ok := s.created.Load(o.graph); ok {
			<-ch.(chan struct{})
		}
	}
	if o.kind == kindCreate {
		defer func() {
			if ch, ok := s.created.Load(o.graph); ok {
				close(ch.(chan struct{}))
			}
		}()
	}
	root := tr.begin("op:"+o.class, -1, id)
	defer tr.end(root)
	res.attempted++
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, s.tgt.url+o.path, body)
	if err != nil {
		res.failed++
		res.note("%s %s: %v", o.method, o.path, err)
		return
	}
	if o.ctype != "" {
		req.Header.Set("Content-Type", o.ctype)
	}
	t0 := time.Now()
	sp := tr.begin("client.do", root, id)
	resp, err := s.hc.Do(req)
	tr.end(sp)
	if err != nil {
		res.failed++
		res.note("%s %s: %v", o.method, o.path, err)
		return
	}
	sp = tr.begin("client.read", root, id)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	tr.end(sp)
	latency := time.Since(t0)
	if err != nil {
		res.failed++
		res.note("%s %s: reading body: %v", o.method, o.path, err)
		return
	}
	sp = tr.begin("harness.verify", root, id)
	why := s.check(o, resp.StatusCode, buf.Bytes())
	tr.end(sp)
	if why != "" {
		res.failed++
		res.note("%s %s: %s", o.method, o.path, why)
		return
	}
	res.observe(o.class, ms(latency.Nanoseconds()))
}

// check returns "" when the answer is right, otherwise what is wrong.
func (s *served) check(o *op, status int, body []byte) string {
	wantStatus := http.StatusOK
	if o.kind == kindCreate {
		wantStatus = http.StatusCreated
	}
	if status != wantStatus {
		return fmt.Sprintf("status %d, want %d: %.200s", status, wantStatus, body)
	}
	switch o.kind {
	case kindHash:
		if sha256.Sum256(body) != o.want {
			return "body differs from the reference engine's"
		}
	case kindCompress:
		var r server.CompressResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return "bad JSON: " + err.Error()
		}
		if r.Graph != o.graph || r.Seed != o.seed || r.N != o.n || r.InputM != o.m {
			return fmt.Sprintf("identity %s/%d n=%d inputM=%d, want %s/%d n=%d inputM=%d",
				r.Graph, r.Seed, r.N, r.InputM, o.graph, o.seed, o.n, o.m)
		}
		if math.Abs(r.EdgeReduction-(1-float64(r.M)/float64(r.InputM))) > 1e-9 {
			return fmt.Sprintf("edgeReduction %g does not match m=%d of %d", r.EdgeReduction, r.M, r.InputM)
		}
		// Each edge survives a fair coin: five standard deviations around m/2.
		if math.Abs(float64(r.M)-0.5*float64(r.InputM)) > 2.5*math.Sqrt(float64(r.InputM))+1 {
			return fmt.Sprintf("uniform p=0.5 kept %d of %d edges", r.M, r.InputM)
		}
		if o.sampled() {
			s.keepSampled(sampledAnswer{o: *o, m: r.M})
		}
	case kindDynamic:
		prefix := fmt.Sprintf(`{"graph":%q,"spec":%q,`, o.graph, variantSpec)
		if !bytes.HasPrefix(body, []byte(prefix)) {
			return fmt.Sprintf("body starts %.60q, want %q", body, prefix)
		}
		if o.sampled() {
			s.keepSampled(sampledAnswer{o: *o, hash: sha256.Sum256(body)})
		}
	case kindCreate:
		var info server.GraphInfo
		if err := json.Unmarshal(body, &info); err != nil {
			return "bad JSON: " + err.Error()
		}
		if info.Name != o.graph || info.N != o.n || info.M != o.m {
			return fmt.Sprintf("created %s n=%d m=%d, want %s n=%d m=%d", info.Name, info.N, info.M, o.graph, o.n, o.m)
		}
	case kindDelete:
		var del server.DeleteResponse
		if err := json.Unmarshal(body, &del); err != nil {
			return "bad JSON: " + err.Error()
		}
		if del.Deleted != o.graph {
			return fmt.Sprintf("deleted %q, want %q", del.Deleted, o.graph)
		}
	}
	return ""
}

func (s *served) keepSampled(a sampledAnswer) {
	s.sampledMu.Lock()
	s.sampled = append(s.sampled, a)
	s.sampledMu.Unlock()
}

// checkSampled replays the sampled dynamic requests against the reference
// engine and compares: the body hash for a BFS, (n, m, edgeReduction) for a
// compression, whose answer also carries timing fields.
func (s *served) checkSampled(res *phaseResult) {
	s.sampledMu.Lock()
	sampled := s.sampled
	s.sampled = nil
	s.sampledMu.Unlock()
	for _, a := range sampled {
		status, body := s.refDo(a.o.method, a.o.path, a.o.body, a.o.ctype)
		if status != http.StatusOK {
			res.failed++
			res.note("reference %s %s: status %d", a.o.method, a.o.path, status)
			continue
		}
		if a.o.kind == kindDynamic {
			if sha256.Sum256(body) != a.hash {
				res.failed++
				res.note("GET %s: body differs from the reference engine's", a.o.path)
			}
			continue
		}
		var r server.CompressResponse
		if err := json.Unmarshal(body, &r); err != nil || r.M != a.m {
			res.failed++
			res.note("POST %s seed %d: m=%d, reference m=%d", a.o.path, a.o.seed, a.m, r.M)
		}
	}
}

// --- after the timed pass ----------------------------------------------------------

// finish reads what is taken after the timed pass: residency, stored bits,
// and the served variant's accuracy.
func (s *served) finish(res *phaseResult, m map[string]float64) error {
	resident, err := residentBytes(s.tgt)
	if err != nil {
		return err
	}
	m["resident_mb"] = mib(resident)
	if m["bits_per_edge"], err = s.storedBitsPerEdge(resident); err != nil {
		return err
	}
	acc, err := s.accuracy(res)
	if err != nil {
		return err
	}
	m["kl_pagerank"], m["triangle_rel_err"], m["bfs_retention"] = acc.klPageRank, acc.triangleRelErr, acc.bfsRetention
	return nil
}

// breakGate corrupts the expected hash of every degrees request.
func (s *served) breakGate() {
	for path, want := range s.mx.expect {
		if strings.Contains(path, "/degrees?") {
			want[0] ^= 0xff
			s.mx.expect[path] = want
		}
	}
}

// accuracy is what /compare reports for the variant the workload serves,
// checked against the reference engine's bytes.
func (s *served) accuracy(res *phaseResult) (accuracy, error) {
	var acc accuracy
	name := s.mx.graphs[0].name
	path := pathCompare(name, variantSeed)
	status, body, err := s.send("GET", s.tgt.url+path, nil, "")
	if err != nil {
		return acc, err
	}
	if status != http.StatusOK {
		return acc, fmt.Errorf("GET %s: status %d: %.200s", path, status, body)
	}
	res.attempted++
	if refStatus, refBody := s.refDo("GET", path, nil, ""); refStatus != status || !bytes.Equal(refBody, body) {
		res.failed++
		res.note("GET %s: body differs from the reference engine's", path)
	}
	var cr server.CompareResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return acc, err
	}
	q := cr.Quality
	acc.klPageRank, acc.bfsRetention, acc.edgeReduction = q.KLPageRank, q.BFSRetention, q.EdgeReduction
	if q.Triangles > 0 {
		acc.triangleRelErr = math.Abs(float64(q.CompressedTriangles-q.Triangles)) / float64(q.Triangles)
	}
	return acc, nil
}

// residentBytes sums the catalog residency gauges over every engine.
func residentBytes(t *target) (float64, error) {
	var total float64
	for _, reg := range t.engines {
		vals, err := scrape(reg)
		if err != nil {
			return 0, err
		}
		for _, tier := range []string{"raw", "packed", "arena", "mapped"} {
			total += vals["slimgraph_catalog_"+tier+"_bytes"]
		}
	}
	return total, nil
}

// storedBitsPerEdge is the bits the system keeps per catalog edge: the
// on-disk servable snapshots where the workload has a data directory,
// otherwise (cluster3 keeps nothing on disk) the resident bytes of every
// replica.
func (s *served) storedBitsPerEdge(resident float64) (float64, error) {
	status, body, err := s.send("GET", s.tgt.url+"/v1/graphs", nil, "")
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("GET /v1/graphs: status %d", status)
	}
	var infos []server.GraphInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		return 0, err
	}
	var edges float64
	for _, info := range infos {
		edges += float64(info.M)
	}
	if edges == 0 {
		return 0, fmt.Errorf("catalog holds no edges")
	}
	if s.tgt.dataDir == "" {
		return resident * 8 / edges, nil
	}
	files, err := filepath.Glob(filepath.Join(s.tgt.dataDir, "graphs", "*.sgp"))
	if err != nil {
		return 0, err
	}
	var bytesOnDisk float64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		bytesOnDisk += float64(st.Size())
	}
	return bytesOnDisk * 8 / edges, nil
}
