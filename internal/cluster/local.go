package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"slimgraph/internal/server"
)

// LocalCluster is an in-process coordinator + N shards on loopback
// listeners — the test and demo harness, and the same wiring cmd/slimgraphd
// performs across real processes.
type LocalCluster struct {
	Coordinator *Coordinator
	// Front is the coordinator's public server: the handler tests hit and
	// cmd/slimgraphd serves.
	Front  *server.Server
	shards []*Shard
	srvs   []*http.Server
	lns    []net.Listener
}

// StartLocal boots n shard servers on ephemeral loopback ports and a
// coordinator over them. shardOpts configures each shard's local server
// (cache size, worker cap); copts supplies coordinator knobs — its Shards
// field is ignored and replaced with the listeners' addresses.
func StartLocal(n int, shardOpts server.Options, copts Options) (*LocalCluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 shard, got %d", n)
	}
	lc := &LocalCluster{}
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			lc.Close()
			return nil, fmt.Errorf("cluster: listening for shard %d: %v", i, err)
		}
		sh, err := NewShard(shardOpts)
		if err != nil {
			lc.Close()
			return nil, fmt.Errorf("cluster: building shard %d: %v", i, err)
		}
		srv := &http.Server{Handler: sh.Handler()}
		go srv.Serve(ln)
		lc.shards = append(lc.shards, sh)
		lc.srvs = append(lc.srvs, srv)
		lc.lns = append(lc.lns, ln)
		addrs = append(addrs, "http://"+ln.Addr().String())
	}
	copts.Shards = addrs
	coord, err := NewCoordinator(copts)
	if err != nil {
		lc.Close()
		return nil, err
	}
	lc.Coordinator = coord
	// The front shares the shards' sizing knobs: a cluster provisioned for
	// a workload shard-side must admit that workload at the door too.
	lc.Front = server.NewWithBackend(coord, coord, server.Options{
		MaxWorkers:    shardOpts.MaxWorkers,
		MaxConcurrent: shardOpts.MaxConcurrent,
		MaxQueue:      shardOpts.MaxQueue,
		QueueWait:     shardOpts.QueueWait,
		Registry:      copts.Registry,
		Logger:        copts.Logger,
	})
	// Sub-request telemetry lands on the front server's registry, so the
	// coordinator's per-shard histograms and the HTTP metrics expose on the
	// same GET /metrics.
	coord.Instrument(lc.Front.Registry())
	lc.Front.SetReadyCheck(coord.Ready)
	return lc, nil
}

// Shard exposes shard i (for stats inspection and fault injection in
// tests).
func (lc *LocalCluster) Shard(i int) *Shard { return lc.shards[i] }

// NumShards returns the shard count.
func (lc *LocalCluster) NumShards() int { return len(lc.shards) }

// Addr returns shard i's base URL.
func (lc *LocalCluster) Addr(i int) string { return "http://" + lc.lns[i].Addr().String() }

// KillShard abruptly stops shard i's listener and in-flight connections —
// the process-crash simulation of the fault-tolerance tests. The shard's
// engine (catalog, variant cache) survives in memory, modelling a node
// whose durable state outlives the outage; RestartShard brings it back on
// the same address.
//
// The server owns the listener once Serve has it, so Close on the server is
// the one close: closing the listener here as well makes the second of the
// two fail with "use of closed network connection".
func (lc *LocalCluster) KillShard(i int) error {
	return lc.srvs[i].Close()
}

// RestartShard re-listens shard i on its original address and serves the
// same engine again. It fails if the kernel gave the port away in the
// meantime — tests should retry or tolerate that rare collision.
func (lc *LocalCluster) RestartShard(i int) error {
	addr := lc.lns[i].Addr().String()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: re-listening shard %d on %s: %v", i, addr, err)
	}
	srv := &http.Server{Handler: lc.shards[i].Handler()}
	go srv.Serve(ln)
	lc.lns[i] = ln
	lc.srvs[i] = srv
	return nil
}

// Close stops the coordinator's background prober and shuts the shard
// servers down, bounded by a short deadline.
func (lc *LocalCluster) Close() {
	if lc.Coordinator != nil {
		lc.Coordinator.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range lc.srvs {
		_ = srv.Shutdown(ctx)
	}
	for _, ln := range lc.lns {
		_ = ln.Close()
	}
}
