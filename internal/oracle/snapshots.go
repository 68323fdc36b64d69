package oracle

import "encoding/binary"

// HostileSnapshots are graph uploads whose 16-byte snapshot header demands
// gigabytes. Every route that parses an uploaded graph must refuse each with
// graphio's source-size bounds — a 400 carrying its "graphio:" message —
// which apply only when the parser is handed the bytes actually received;
// parsed off the network stream they took the process down with "runtime:
// out of memory".
func HostileSnapshots() map[string][]byte {
	header := func(version byte, n, m uint32) []byte {
		b := []byte("GMLS")             // succinct.SnapshotMagic, little-endian
		b = append(b, version, 0, 0, 0) // flags 0, minor 0
		b = binary.LittleEndian.AppendUint32(b, n)
		return binary.LittleEndian.AppendUint32(b, m)
	}
	// v2.0 with n = 2^32-1 behind a plausible directory — 4096 blocks of
	// 2^20 vertices — and the 32 GiB payload that n makes "plausible".
	packed := header(2, 1<<32-1, 0)
	packed = binary.LittleEndian.AppendUint32(packed, 1<<20)
	packed = binary.LittleEndian.AppendUint32(packed, 4096)
	packed = binary.LittleEndian.AppendUint64(packed, 1<<35)
	packed = append(packed, make([]byte, 4097*16)...)
	return map[string][]byte{
		"v1 m=2^32-1":   header(1, 1, 1<<32-1),
		"v2.0 n=2^32-1": packed,
		"truncated v1":  append(header(1, 4, 3), make([]byte, 8)...), // 3 edges declared, 1 sent
	}
}
