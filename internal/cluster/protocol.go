package cluster

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// The /internal/v1 shard protocol: what the coordinator exchanges with
// shards beyond the public API. Replication (graph load/unload, variant
// purge) addresses whole objects; partial queries (POST .../part/{route})
// address part `shard` of `of`, which the shard turns into its share of
// the work itself — a vertex range for bfs, pr-init, pr-pull and degrees,
// a slice of the triangle engine's edge order for triangles — both pure
// functions of the target graph, so they never travel on the wire.
//
// Part routes follow the convention graph replication already uses: the
// request scalars (spec, seed, workers, shard, of) ride in the query
// string and the one bulk vector is an application/octet-stream body. That
// body and every 2xx part reply are the same little-endian frame:
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
// route. Per route (request vector → reply scalars; reply vector):
//
//	bfs        frontier []int32 → —; candidate next level []int32
//	pr-init    — → n, lo, hi; dangling vertices of the range []int32
//	pr-pull    ranks []float64 → lo; pull sums of the range []float64
//	degrees    — → —; out-degree histogram of the range []int64
//	triangles  — → triangles.Engine.CountPart of the part (a work slice
//	           of the edge order, not a vertex range); —
//
// PageRank's scalar steps (base, dangling share, damping, L1 delta, stop)
// are centrality.PowerIterate's; a pr-pull round is its pull step.

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
		return 0, fmt.Errorf("not a part frame (%d bytes)", len(data))
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
