package succinct

import "encoding/binary"

// SnapshotMagic is the shared magic of every binary snapshot version
// ("SLMG", little-endian).
const SnapshotMagic = uint32(0x534c4d47)

// SnapshotVersion and ServableMinor identify the servable image: format
// version 2 (packed), minor 1 (aligned, servable). Minor 0 is the compact
// canonical-only wire form graphio decodes.
const (
	SnapshotVersion = 2
	ServableMinor   = 1
)

// SnapshotHeaderSize is the length of the prefix every binary snapshot —
// graphio's v1 and v2.0 and the servable image — starts with: magic u32,
// version u8, flags u8, minor u16, n u32, m u32, little-endian. This file is
// the only place that layout is written down.
const SnapshotHeaderSize = 16

// Header flag bits.
const (
	flagDirected = 1
	flagWeighted = 2
	flagPermuted = 4
)

// SnapshotHeader is the decoded prefix. The u16 at offset 6 was padding
// through v2.0 (always written zero) and now carries the minor version, so
// old files read as minor 0.
type SnapshotHeader struct {
	Version  uint8
	Minor    uint16
	Directed bool
	Weighted bool
	Permuted bool // v2 only: a vertex permutation section is stored
	N, M     int
}

// Append appends h's SnapshotHeaderSize bytes to dst.
func (h SnapshotHeader) Append(dst []byte) []byte {
	var flags uint8
	if h.Directed {
		flags |= flagDirected
	}
	if h.Weighted {
		flags |= flagWeighted
	}
	if h.Permuted {
		flags |= flagPermuted
	}
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, SnapshotMagic)
	dst = append(dst, h.Version, flags)
	dst = le.AppendUint16(dst, h.Minor)
	dst = le.AppendUint32(dst, uint32(h.N))
	return le.AppendUint32(dst, uint32(h.M))
}

// ParseSnapshotHeader decodes the header at the front of prefix; ok is false
// when prefix is shorter than SnapshotHeaderSize or does not begin with the
// magic.
func ParseSnapshotHeader(prefix []byte) (h SnapshotHeader, ok bool) {
	le := binary.LittleEndian
	if len(prefix) < SnapshotHeaderSize || le.Uint32(prefix) != SnapshotMagic {
		return h, false
	}
	flags := prefix[5]
	return SnapshotHeader{
		Version:  prefix[4],
		Minor:    le.Uint16(prefix[6:]),
		Directed: flags&flagDirected != 0,
		Weighted: flags&flagWeighted != 0,
		Permuted: flags&flagPermuted != 0,
		N:        int(le.Uint32(prefix[8:])),
		M:        int(le.Uint32(prefix[12:])),
	}, true
}
