package cluster

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// The /internal/v1 shard protocol: what the coordinator exchanges with
// shards beyond the public API. Replication (graph load/unload, variant
// purge) addresses whole objects. Compute routes come in two kinds, and
// the kind follows from the kernel, not from a size or an option: a kernel
// whose number of rounds depends on the graph runs whole on one replica
// (POST .../whole/{route}); a kernel that needs one round scatters, each
// sub-request (POST .../part/{route}) addressing part `shard` of `of`,
// which the shard turns into its share of the work itself — a vertex range
// for degrees, a slice of the triangle engine's edge order for triangles —
// a pure function of the target graph, so it never travels on the wire.
//
// A sub-request's whole input is its query string (spec, seed, workers,
// plus root or shard and of); no compute route reads a body. Every 2xx
// compute reply is the same little-endian frame:
//
//	offset  0  "SGF"                magic
//	offset  3  element width        4 (int32) or 8 (int64, float64 bits)
//	offset  4  element count        uint32
//	offset  8  three int64 scalars  meaning fixed per route, 0 if unused
//	offset 32  count × width bytes  the vector
//
// valid only when its byte length is exactly 32 + count × width, which
// lets a receiver reject a torn read in place and never allocate past the
// bytes it was handed; floats cross as IEEE-754 bit patterns, bit-exact.
// appendFrame and decodeFrame are the only writer and reader. Error
// replies stay {"error": ...} JSON, so 4xx relaying matches every other
// route. Per route (query parameters → reply scalars; reply vector):
//
//	whole/bfs       root → —; traverse.BFS distances, n × int32
//	whole/pagerank  — → —; centrality.PageRank ranks, n × float64
//	part/degrees    shard, of → —; out-degree histogram of the range []int64
//	part/triangles  shard, of → triangles.Engine.CountPart of the part (a
//	                work slice of the edge order, not a vertex range); —
//
// A whole reply carries exactly n elements (the target's vertex count);
// the coordinator treats any other count as a torn reply.

// elem is the set of vector element types a frame carries.
type elem interface{ int32 | int64 | float64 }

const (
	frameMagic  = "SGF"
	frameHeader = 32
)

// frameSize is the exact byte length of a frame of count elements.
func frameSize(width, count int) int { return frameHeader + width*count }

func widthOf[T elem]() int { return binary.Size(*new(T)) }

// appendFrame appends the frame of (scalars, v) to dst.
func appendFrame[T elem](dst []byte, scalars [3]int64, v []T) []byte {
	width := widthOf[T]()
	dst = append(slices.Grow(dst, frameSize(width, len(v))), frameMagic...)
	dst = append(dst, byte(width))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
	dst, _ = binary.Append(dst, binary.LittleEndian, scalars[:]) // fixed-size data: cannot fail
	dst, _ = binary.Append(dst, binary.LittleEndian, v)
	return dst
}

// checkFrame validates a frame's envelope — magic, the expected element
// width, a count of at most max, a byte length that is exactly what the
// count declares (so every truncation fails here) — and returns the count.
func checkFrame(data []byte, width, max int) (int, error) {
	if len(data) < frameHeader || string(data[:3]) != frameMagic {
		return 0, fmt.Errorf("not a reply frame (%d bytes)", len(data))
	}
	if int(data[3]) != width {
		return 0, fmt.Errorf("frame element width %d, want %d", data[3], width)
	}
	count := int(binary.LittleEndian.Uint32(data[4:]))
	if count > max {
		return 0, fmt.Errorf("frame declares %d elements, at most %d allowed", count, max)
	}
	if len(data) != frameSize(width, count) {
		return 0, fmt.Errorf("frame declares %d elements but is %d bytes, want %d", count, len(data), frameSize(width, count))
	}
	return count, nil
}

// decodeFrame validates data with checkFrame and decodes it, reusing dst's
// backing array when it is large enough; otherwise the one allocation is
// the count-element vector, count having been checked against the bytes.
func decodeFrame[T elem](dst []T, data []byte, max int) (scalars [3]int64, v []T, err error) {
	count, err := checkFrame(data, widthOf[T](), max)
	if err != nil {
		return scalars, nil, err
	}
	if cap(dst) < count {
		dst = make([]T, count)
	}
	v = dst[:count]
	_, _ = binary.Decode(data[8:], binary.LittleEndian, scalars[:]) // lengths checked above: cannot fail
	_, _ = binary.Decode(data[frameHeader:], binary.LittleEndian, v)
	return scalars, v, nil
}

// purgeRequest asks a shard to drop one cached variant by its canonical
// key — the coordinator's cleanup after a partially failed replication.
type purgeRequest struct {
	Spec    string `json:"spec"`
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
}

// purgeResponse reports whether the variant was resident.
type purgeResponse struct {
	Purged bool `json:"purged"`
}
