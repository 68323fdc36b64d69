package succinct

import (
	"encoding/binary"
	"fmt"
)

// SnapshotMagic is the shared magic of every binary snapshot version
// ("SLMG", little-endian).
const SnapshotMagic = uint32(0x534c4d47)

// SnapshotVersion is the format version of the two packed forms, which the
// minor tells apart: CompactMinor is the canonical-only wire form graphio
// decodes, ServableMinor the aligned image a PackedGraph attaches over.
// Minors 0 and 1 were the same two forms with one LEB128 varint per gap; the
// list codec has since moved to groups of eight (varint.go) and no reader of
// the old lists is kept, so every reader refuses them through CheckMinor.
const (
	SnapshotVersion = 2
	CompactMinor    = 2
	ServableMinor   = 3
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

// SnapshotHeader is the decoded prefix. The u16 at offset 6 is the minor
// version; v1 writes it zero.
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

// CheckMinor reports whether a version-2 header carries the minor a reader
// wants, naming both when it does not. A retired minor is told apart from an
// unknown one: its bytes are LEB128 lists, which must never be decoded as
// groups, and the way forward is to write the graph again from an edge list
// or a binary v1 snapshot.
func (h SnapshotHeader) CheckMinor(want uint16) error {
	switch {
	case h.Minor == want:
		return nil
	case h.Minor < CompactMinor:
		return fmt.Errorf("snapshot version %d.%d holds LEB128 gap lists, which are no longer read; want version %d.%d (write the graph again from an edge list or a binary v1 snapshot)",
			h.Version, h.Minor, SnapshotVersion, want)
	}
	return fmt.Errorf("snapshot version %d.%d has another minor than the version %d.%d wanted", h.Version, h.Minor, SnapshotVersion, want)
}
