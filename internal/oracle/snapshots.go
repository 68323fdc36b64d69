package oracle

import (
	"encoding/binary"

	"slimgraph/internal/succinct"
)

// HostileSnapshots are graph uploads whose 16-byte snapshot header demands
// gigabytes. Every route that parses an uploaded graph must refuse each with
// graphio's source-size bounds — a 400 carrying its "graphio:" message —
// which apply only when the parser is handed the bytes actually received;
// parsed off the network stream they took the process down with "runtime:
// out of memory".
func HostileSnapshots() map[string][]byte {
	header := func(version uint8, minor uint16, n, m int) []byte {
		return succinct.SnapshotHeader{Version: version, Minor: minor, N: n, M: m}.Append(nil)
	}
	// The compact packed form of today — an older minor is refused for its
	// version before any bound is reached — with n = 2^32-1 behind a
	// plausible directory, 4096 blocks of 2^20 vertices, and the 32 GiB
	// payload that n makes "plausible".
	packed := header(succinct.SnapshotVersion, succinct.CompactMinor, 1<<32-1, 0)
	packed = binary.LittleEndian.AppendUint32(packed, 1<<20)
	packed = binary.LittleEndian.AppendUint32(packed, 4096)
	packed = binary.LittleEndian.AppendUint64(packed, 1<<35)
	packed = append(packed, make([]byte, 4097*16)...)
	return map[string][]byte{
		"v1 m=2^32-1":     header(1, 0, 1, 1<<32-1),
		"packed n=2^32-1": packed,
		"truncated v1":    append(header(1, 0, 4, 3), make([]byte, 8)...), // 3 edges declared, 1 sent
	}
}
