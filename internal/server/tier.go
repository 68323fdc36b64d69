package server

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"slimgraph/internal/graph"
	"slimgraph/internal/succinct"
)

// store is the catalog's disk tier: a data directory holding one servable
// (v2.3) snapshot per graph plus a small JSON sidecar with the fields a
// snapshot cannot carry (memory policy, provenance), and one directory of
// spilled variants per graph. Every write is crash-consistent — temp file,
// fsync, rename, directory fsync — so a file that exists under its final
// name is always a complete image, and anything that died mid-write is a
// *.tmp leftover the startup scan deletes.
//
// Layout under the data directory:
//
//	graphs/<name>.sgp         servable snapshot (mmap'd to serve)
//	graphs/<name>.json        {"memory": ..., "source": ...}
//	variants/<name>/<key>.sgp spilled variant outputs, key = fnv64a(spec|seed)
//
// A graph owns its variant directory, names of an older key layout included:
// a create clears it before the graph is published, a DELETE before its files.
type store struct {
	dir string
	// variants orders writes under variants/ against removals there: a
	// variant spill holds it shared from its liveness check to its rename,
	// and clearVariants holds it exclusively, so no spill of a dropped or
	// re-created graph lands after its directory was cleared.
	variants sync.RWMutex
}

// storeMeta is the graph sidecar: catalog state that is not part of the
// graph itself and must survive a restart.
type storeMeta struct {
	Memory string `json:"memory"`
	Source string `json:"source"`
}

func newStore(dir string) (*store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "graphs"), filepath.Join(dir, "variants")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return &store{dir: dir}, nil
}

func (s *store) graphPath(name string) string {
	return filepath.Join(s.dir, "graphs", name+".sgp")
}

func (s *store) metaPath(name string) string {
	return filepath.Join(s.dir, "graphs", name+".json")
}

func (s *store) variantDir(name string) string {
	return filepath.Join(s.dir, "variants", name)
}

func (s *store) variantPath(name string, key Key) string {
	// The generation is deliberately not part of the filename: it resets on
	// restart, and the files must be addressable across restarts. Creating
	// or dropping a graph clears its whole variant directory, so a
	// re-created graph (new generation) can never fault in a predecessor's
	// variants.
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%d", key.Spec, key.Seed)
	return filepath.Join(s.variantDir(name), fmt.Sprintf("%016x.sgp", h.Sum64()))
}

// writeAtomic writes data-producing fn's output to path crash-consistently:
// the bytes land in path+".tmp" and are fsync'd before the rename, so a
// crash at any point leaves either the old state or the complete new file —
// never a short read under the final name.
func writeAtomic(path string, write func(f *os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// Persist the rename itself: fsync the containing directory.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// writeServable writes pg's servable image to path crash-consistently — the
// one snapshot writer under graphs and spilled variants alike.
func writeServable(path string, pg *succinct.PackedGraph) error {
	return writeAtomic(path, func(f *os.File) error {
		_, err := succinct.WriteServable(f, pg)
		return err
	})
}

// saveGraph persists a graph's servable image and sidecar under their final
// names. It is the write-through half of the warm-restart guarantee.
func (s *store) saveGraph(name string, pg *succinct.PackedGraph, meta storeMeta) error {
	if err := writeServable(s.graphPath(name), pg); err != nil {
		return fmt.Errorf("persisting graph %q: %v", name, err)
	}
	raw, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	if err := writeAtomic(s.metaPath(name), func(f *os.File) error {
		_, err := f.Write(raw)
		return err
	}); err != nil {
		return fmt.Errorf("persisting graph %q metadata: %v", name, err)
	}
	return nil
}

// saveVariant persists an evicted variant's output, a CSR, as a servable
// snapshot if live() still holds, skipping the write when a complete
// snapshot for the key already exists (re-evictions of a re-computed
// variant are common and the bytes are deterministic). It reports whether
// the snapshot is on disk.
func (s *store) saveVariant(name string, key Key, out graph.AdjacencyEdges, live func() bool) bool {
	s.variants.RLock()
	defer s.variants.RUnlock()
	if !live() || os.MkdirAll(s.variantDir(name), 0o755) != nil {
		return false
	}
	path := s.variantPath(name, key)
	if _, err := succinct.StatServable(path); err == nil {
		return true
	}
	return writeServable(path, succinct.Pack(graph.CSROf(out, 1), 1)) == nil
}

// clearVariants deletes every spilled variant of the named graph.
func (s *store) clearVariants(name string) {
	s.variants.Lock()
	defer s.variants.Unlock()
	os.RemoveAll(s.variantDir(name))
}

// loadMeta reads a graph's sidecar; missing or corrupt sidecars degrade to
// defaults (raw policy, unknown source) rather than failing the attach —
// the snapshot itself is the source of truth for the graph.
func (s *store) loadMeta(name string) storeMeta {
	meta := storeMeta{Memory: MemoryRaw, Source: "restored"}
	raw, err := os.ReadFile(s.metaPath(name))
	if err == nil {
		_ = json.Unmarshal(raw, &meta)
	}
	if meta.Memory != MemoryRaw && meta.Memory != MemoryPacked {
		meta.Memory = MemoryRaw
	}
	return meta
}

// removeGraph deletes a graph's spilled variants, then its snapshot and
// sidecar: a crash in between leaves a graph without variants, never
// variants without their graph.
func (s *store) removeGraph(name string) {
	s.clearVariants(name)
	os.Remove(s.graphPath(name))
	os.Remove(s.metaPath(name))
}

// scanGraphs returns the names of every complete graph snapshot on disk,
// deleting *.tmp leftovers of interrupted writes along the way (the
// crash-consistency contract: a partial spill is garbage, not a graph).
func (s *store) scanGraphs() ([]string, error) {
	var names []string
	for _, sub := range []string{filepath.Join(s.dir, "graphs"), filepath.Join(s.dir, "variants")} {
		_ = filepath.WalkDir(sub, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".tmp") {
				os.Remove(path)
			}
			return nil
		})
	}
	ents, err := os.ReadDir(filepath.Join(s.dir, "graphs"))
	if err != nil {
		return nil, err
	}
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".sgp") {
			continue
		}
		names = append(names, strings.TrimSuffix(ent.Name(), ".sgp"))
	}
	return names, nil
}

// tierCounters tracks spill/fault-in traffic across both tiers; the catalog
// and the variant cache share one instance, and /v1/stats plus the
// slimgraph_catalog_tier_* metrics read it.
type tierCounters struct {
	graphSpills     atomic.Int64
	variantSpills   atomic.Int64
	variantFaultIns atomic.Int64
	attached        atomic.Int64 // graphs re-attached by the startup scan
}
