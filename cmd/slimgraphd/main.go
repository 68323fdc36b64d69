// Command slimgraphd serves the Slim Graph compress-and-query API over
// HTTP/JSON: a catalog of resident graphs, a single-flight cache of
// compressed variants, and approximate-analytics query endpoints.
//
// It runs in one of three roles:
//
//	slimgraphd -addr :8080                       # standalone (the default)
//	slimgraphd -role shard -addr :8081           # cluster member
//	slimgraphd -role coordinator -addr :8080 \
//	    -peers http://h1:8081,http://h2:8081     # cluster frontend
//
// A coordinator serves the same /v1/graphs API as a standalone server over
// its -peers shard replicas, one sub-request per query (see
// internal/cluster). All
// roles expose /healthz (process liveness), /readyz (traffic readiness:
// preloads finished; for a coordinator, every shard ready), and /metrics
// (Prometheus text exposition: per-endpoint latency histograms, variant
// cache counters, catalog residency, per-shard sub-request timing on a
// coordinator). Every request carries an X-Slimgraph-Request ID — assigned
// if absent, forwarded on coordinator→shard sub-requests — and emits one
// structured key=value log line on stderr. -debug-addr starts a second
// listener with /debug/pprof and a /metrics mirror for live profiling.
// All roles shut down gracefully on SIGINT/SIGTERM, draining in-flight
// requests up to -drain before exiting.
//
// See the README "Serving", "Running a cluster", and "Observability"
// sections for endpoint walkthroughs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"slimgraph/internal/cluster"
	"slimgraph/internal/graphio"
	"slimgraph/internal/obs"
	"slimgraph/internal/resilience"
	"slimgraph/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole daemon behind a testable seam: it parses args, wires the
// role, and serves until a signal. Flag-validation failures return 2 and
// runtime failures 1, so the exit paths golden tests pin are ordinary
// returns rather than log.Fatalf process exits.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slimgraphd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		role      = fs.String("role", "standalone", "process role: standalone | coordinator | shard (a shard serves the standalone API to a coordinator, keeping no triangle arena)")
		peers     = fs.String("peers", "", "comma-separated shard base URLs (coordinator only)")
		shardTO   = fs.Duration("shard-timeout", 15*time.Second, "per-shard sub-request deadline (coordinator only)")
		drain     = fs.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
		cacheN    = fs.Int("cache", 64, "max resident compressed variants (LRU)")
		maxConc   = fs.Int("max-concurrent", 0, "max heavy requests in flight (0 = 2x CPUs)")
		maxWork   = fs.Int("max-workers", 0, "per-request worker-budget cap (0 = all CPUs)")
		memory    = fs.String("memory", server.MemoryRaw, "residency policy for -load/-demo graphs: raw | packed")
		dataDir   = fs.String("data-dir", "", "disk tier: persist graphs as servable snapshots here and re-attach them memory-mapped on restart (standalone/shard only)")
		memBudget = fs.String("mem-budget", "", "catalog heap budget, e.g. 512M or 4G; past it the least recently used graphs drop their heap form and serve their -data-dir snapshot memory-mapped (requires -data-dir)")
		demo      = fs.Int("demo", 0, "preload a demo R-MAT graph named \"demo\" at this scale (0 = off)")
		debugAddr = fs.String("debug-addr", "", "serve /debug/pprof and a /metrics mirror on this extra address (empty = off)")
		version   = fs.Bool("version", false, "print build/version info and exit")
		retries   = fs.Int("retries", 0, "sub-request attempts per shard call (coordinator only; 0 = default 3)")
		breakerN  = fs.Int("breaker-threshold", 0, "consecutive failures before a shard's breaker opens (coordinator only; 0 = default 3)")
		breakerCD = fs.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (coordinator only; 0 = default 5s)")
		probeIvl  = fs.Duration("probe-interval", 0, "background /readyz health-probe interval (coordinator only; 0 = off)")
		faultSpec = fs.String("fault-inject", "", "deterministic fault-injection spec applied to inbound requests, e.g. \"path=/v1/graphs/,p=0.1,seed=7,status=503\", which on a shard fails a tenth of the coordinator's queries, compresses and drops (testing only)")
	)
	var loads []string
	fs.Func("load", "preload name=path (edge list or snapshot; repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want name=path, got %q", v)
		}
		loads = append(loads, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *version {
		b := obs.Build()
		rev := b.Revision
		if rev == "" {
			rev = "unknown"
		}
		if b.Modified {
			rev += "+dirty"
		}
		fmt.Fprintf(stdout, "slimgraphd %s (%s, revision %s)\n", b.Version, b.GoVersion, rev)
		return 0
	}

	// A value outside a flag's range is refused, never read as a default;
	// only the zero readings the help documents stand.
	for _, f := range []struct {
		name, want string
		bad        bool
	}{
		{"cache", "at least 1", *cacheN < 1},
		{"shard-timeout", "a positive duration", *shardTO <= 0},
		{"drain", "0 or more", *drain < 0},
		{"max-concurrent", "0 or more", *maxConc < 0},
		{"max-workers", "0 or more", *maxWork < 0},
		{"demo", "0 or more", *demo < 0},
		{"retries", "0 or more", *retries < 0},
		{"breaker-threshold", "0 or more", *breakerN < 0},
		{"breaker-cooldown", "0 or more", *breakerCD < 0},
		{"probe-interval", "0 or more", *probeIvl < 0},
	} {
		if f.bad {
			fmt.Fprintf(stderr, "slimgraphd: -%s %s: want %s\n", f.name, fs.Lookup(f.name).Value, f.want)
			return 2
		}
	}

	budget, err := parseBytes(*memBudget)
	if err != nil {
		fmt.Fprintf(stderr, "slimgraphd: -mem-budget: %v\n", err)
		return 2
	}
	if budget > 0 && *dataDir == "" {
		fmt.Fprintln(stderr, "slimgraphd: -mem-budget requires -data-dir (spilled graphs need somewhere to go)")
		return 2
	}

	// Operational messages go through lg; per-request structured logging
	// goes through the obs logger the server options carry.
	lg := log.New(stderr, "", log.LstdFlags)
	opts := server.Options{
		CacheCapacity: *cacheN,
		MaxConcurrent: *maxConc,
		MaxWorkers:    *maxWork,
		Logger:        obs.NewTextLogger(stderr),
		DataDir:       *dataDir,
		MemBudget:     budget,
	}

	var srv *server.Server
	var handler http.Handler
	switch *role {
	case "standalone", "shard":
		if *peers != "" {
			fmt.Fprintln(stderr, "slimgraphd: -peers applies only to -role coordinator")
			return 2
		}
		srv, err = server.New(opts)
		if err != nil {
			fmt.Fprintf(stderr, "slimgraphd: -data-dir: %v\n", err)
			return 1
		}
		for _, name := range srv.Local().Attached() {
			lg.Printf("attached %q from %s (mmap'd, zero decode)", name, *dataDir)
		}
		for _, reason := range srv.Local().Skipped() {
			lg.Printf("not attached from %s: %s", *dataDir, reason)
		}
		// Hold traffic off until the preloads finish; a load balancer
		// watching /readyz won't route to a shard still parsing graphs.
		srv.SetNotReady("loading graphs")
		// A shard is a plain server the coordinator reaches through the
		// public routes; as a replica it keeps no triangle arena.
		if *role == "shard" {
			srv.Local().MarkReplica()
		}
		handler = srv.Handler()
	case "coordinator":
		if *dataDir != "" {
			fmt.Fprintln(stderr, "slimgraphd: -data-dir applies only to standalone and shard roles (a coordinator holds no graphs)")
			return 2
		}
		shards := splitPeers(*peers)
		if len(shards) == 0 {
			fmt.Fprintln(stderr, "slimgraphd: -role coordinator needs -peers")
			return 2
		}
		coord, err := cluster.NewCoordinator(cluster.Options{
			Shards:           shards,
			ShardTimeout:     *shardTO,
			Retry:            resilience.RetryPolicy{MaxAttempts: *retries},
			BreakerThreshold: *breakerN,
			BreakerCooldown:  *breakerCD,
			ProbeInterval:    *probeIvl,
		})
		if err != nil {
			fmt.Fprintf(stderr, "slimgraphd: %v\n", err)
			return 2
		}
		srv = server.NewWithBackend(coord, coord, opts)
		coord.Instrument(srv.Registry())
		srv.SetNotReady("loading graphs")
		srv.SetReadyCheck(coord.Ready)
		handler = srv.Handler()
		lg.Printf("coordinating %d shards: %s", len(shards), strings.Join(shards, ", "))
	default:
		fmt.Fprintf(stderr, "slimgraphd: unknown -role %q (standalone | coordinator | shard)\n", *role)
		return 2
	}

	if *faultSpec != "" {
		inj, err := resilience.ParseFaultSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(stderr, "slimgraphd: -fault-inject: %v\n", err)
			return 2
		}
		// The injector wraps the whole handler (observability included), so
		// injected drops and truncations look exactly like network faults to
		// clients — which is the point.
		handler = inj.Middleware(handler)
		lg.Printf("fault injection armed: %d rule(s) from spec %q", len(inj.Rules()), *faultSpec)
	}

	for _, nv := range loads {
		name, path, _ := strings.Cut(nv, "=")
		if err := preload(srv, name, path, *memory); err != nil {
			fmt.Fprintf(stderr, "slimgraphd: -load %s: %v\n", nv, err)
			return 1
		}
		lg.Printf("loaded %q from %s", name, path)
	}
	if *demo > 0 {
		if err := srv.AddGenerated("demo", "rmat", *demo, 8, 0, 1, false, *memory, 0); err != nil {
			fmt.Fprintf(stderr, "slimgraphd: -demo: %v\n", err)
			return 1
		}
		lg.Printf("generated demo graph at scale %d", *demo)
	}
	srv.SetReady()

	if *debugAddr != "" {
		go serveDebug(lg, *debugAddr, srv.Registry())
	}
	if err := serve(lg, *addr, *role, handler, *drain); err != nil {
		fmt.Fprintf(stderr, "slimgraphd: %v\n", err)
		return 1
	}
	return 0
}

// serveDebug runs the introspection listener: the pprof surface (explicitly
// registered — slimgraphd never touches http.DefaultServeMux) plus a mirror
// of the metrics registry. Keeping it on its own address means profiling
// endpoints are never exposed on the public port.
func serveDebug(lg *log.Logger, addr string, reg *obs.Registry) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", reg.Handler())
	lg.Printf("debug listener (pprof, metrics) on %s", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		lg.Printf("debug listener: %v", err)
	}
}

// serve runs the HTTP server until SIGINT/SIGTERM, then drains: new
// connections stop, in-flight requests get up to the drain deadline, and
// the exit is clean so orchestrators don't log a crash on every deploy.
func serve(lg *log.Logger, addr, role string, handler http.Handler, drain time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{Addr: addr, Handler: handler}
	errc := make(chan error, 1)
	go func() {
		lg.Printf("slimgraphd %s listening on %s", role, addr)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	lg.Printf("slimgraphd shutting down (draining up to %v)", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	lg.Printf("slimgraphd stopped")
	return nil
}

// splitPeers parses the -peers list, dropping empty entries and trailing
// slashes so URL joins stay clean.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseBytes parses a human byte size: a plain integer, or one with a K, M,
// or G suffix (powers of 1024). Empty means 0 (unbounded). A size past
// math.MaxInt64 bytes is an error, never a wrapped product.
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	orig := s
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) || n < 0 {
		return 0, fmt.Errorf("want a byte size like 512M or 4G, got %q", orig)
	}
	if err != nil || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("byte size %q is past the largest, %d bytes", orig, int64(math.MaxInt64))
	}
	return n * mult, nil
}

// preload loads one graph file into the catalog before serving.
func preload(srv *server.Server, name, path, memory string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := graphio.ReadAuto(f, false)
	if err != nil {
		return err
	}
	return srv.AddGraph(name, memory, "file:"+path, g, 0)
}
