// Package succinct is the compact storage subsystem of Slim Graph: a delta
// ("gap") codec for sorted adjacency lists — bit-packed groups of eight gaps
// behind a varint head — and a blocked, bit-packed CSR — PackedGraph — that
// graph algorithms traverse directly, without inflating back to graph.Graph.
//
// The paper composes lossy schemes with a compact lossless representation
// to report storage reductions (§5); Log(Graph) (Besta et al.) shows that a
// bit-packed, delta-encoded CSR can be traversed at near-raw speed. This
// package supplies both halves:
//
//   - Codec (varint.go): one adjacency list is varint(len), the first
//     neighbor as a zig-zag varint delta from the owning vertex, then the
//     strictly positive gaps to the remaining neighbors as gap-1 values.
//     Every full group of eight of them is one width byte w (0–31) followed
//     by exactly w bytes holding the eight values at w bits each, first
//     value in the lowest bits; the last (len-1) mod 8 values are LEB128
//     varints. A group is byte-aligned by construction (8·w bits are w
//     bytes), so up to 15 bits a value two 64-bit loads hold a whole group
//     and a value is a shift and a mask: the only step that waits on the
//     previous value is the prefix-sum add, where one varint per gap walked
//     a load → decode → advance chain. A list of fewer than nine entries has
//     no group and is all varints. The codec is varint.go: no other file
//     reads or writes a list's bytes (CI greps for it), and the block-level
//     readers — Unpack, ForEdges, Verify, DecodeStored — are back-to-back
//     DecodeList scans. A candidate codec supplies AppendList and its byte
//     accounting listWidths (the encoder run over a scratch buffer, so the
//     two cannot drift); the three readers DecodeList (bulk), firstInSet
//     (early exit) and streamList (no destination); listLen; and
//     MaxPayloadBytes, a true upper bound on any payload the readers accept
//     (a group costs at most 32 bytes, under the ten a value it allows).
//
//     The readers share one corrupt-input contract. A list whose length
//     header does not decode, or declares more entries than the bytes
//     behind it can hold — a byte for the head, one for every group of
//     eight (a width byte of 0), one for every varint gap — has length 0
//     and is empty to all three; so is one whose first neighbor does not
//     decode or lies outside [0, 2^31), though listLen, which reads the
//     header alone (anything more would cost a decode per Degree), still
//     reports what it declares. That header check is also the allocation
//     bound: eight entries can share a byte, so a declared length sizes at
//     most 32 B of destination per payload byte the reader was handed.
//     Damage behind the first neighbor makes DecodeList fail in place,
//     returning nothing, while firstInSet and streamList, which cannot take
//     back what they delivered, stop there: the neighbors in front of the
//     damage are real, and nothing is invented behind it. A group whose
//     width byte exceeds 31, or whose w bytes run past the payload, is
//     damage at its first value — the streaming readers stop in front of
//     the group; an undecodable varint gap, or one of 2^31 or more, is
//     damage at that gap; a value that carries a neighbor to 2^31 or beyond
//     ends the stream at that value. No reader returns a neighbor outside
//     [0, 2^31), runs longer than the payload is, or reads outside the
//     payload — within the last eight bytes, where a word load would, the
//     group is put together byte by byte.
//
//   - PackedGraph (packed.go): every vertex's adjacency encoded with the
//     codec into one payload byte stream, addressed by a two-level offset
//     directory in the Log(Graph) style — an absolute byte offset per block
//     of ~64 vertices plus a bit-packed per-vertex offset relative to the
//     block start, using exactly ceil(log2(max block payload)) bits per
//     vertex. Degree, Neighbors, ForNeighbors, ScanInLists and
//     FirstInNeighborIn decode on the fly; Unpack restores a bit-identical
//     graph.Graph, reached on the compression path only by the three
//     schemes that build a graph on a new vertex set (summarize, relabel,
//     tr-collapse's contraction). The canonical-edge readers — ForEdges,
//     FillEdgeColumns (the edge columns every core kernel compresses a
//     packed graph in place from) and Unpack — hand out only canonical edges: an endpoint outside [0, n), a
//     self-loop, or a block holding more or fewer edges than the directory
//     declares panics as a corrupt packed graph, in the caller's goroutine.
//
//   - Snapshot header (header.go): the 16-byte prefix — magic, version,
//     flags, minor, n, m — every snapshot version starts with, graphio's
//     v1 and the two packed forms alike. SnapshotHeader.Append and
//     ParseSnapshotHeader are its only writer and reader, and CheckMinor
//     the one place a reader refuses the minors 0 and 1 that held LEB128
//     lists: by naming the version found and the version wanted, never by
//     decoding old bytes as the new layout. CheckUnpermuted beside it
//     refuses flag 4, a stored pack-time vertex permutation, the same way:
//     every packed form keeps the vertex IDs of the graph it was given.
//
//   - Storage stream (format.go): the byte sections of the compact graphio
//     v2 snapshot ("packed" format, minor CompactMinor). Only the canonical
//     direction is stored —
//     directed out-lists, or the forward (w > v) half of each undirected
//     adjacency — so an undirected snapshot holds every edge once, gap
//     encoded. A per-block directory (payload offset + first edge index)
//     makes encode and decode block-parallel and deterministic for any
//     worker count: blocks are encoded independently and concatenated in
//     block order, so the bytes never depend on scheduling.
//
//   - Servable image (servable.go, mapped.go): format version 2, minor
//     ServableMinor — the PackedGraph's complete section set (payloads, directory,
//     bit-packed relative offsets, edge starts, weights)
//     written with every section padded to an 8-byte boundary and sized
//     exactly by a fixed 64-byte header. The alignment rule is what makes
//     the image attachable in place: each word-typed section lands on its
//     natural boundary, so AttachServable overlays a PackedGraph on the
//     raw bytes — zero decode pass, and on little-endian hosts zero copy
//     (big-endian hosts copy-swap the word sections; the byte-addressed
//     payloads are never copied anywhere). OpenPacked mmaps a servable
//     file into a reference-counted Mapped (MmapSupported; a heap ReaderAt
//     fallback serves other platforms identically) whose munmap waits for
//     the last Acquire holder, and StatServable validates identity and
//     exact size from the header alone.
//
// Use PackedGraph when a graph must stay resident but is traversed with
// simple neighborhood scans (BFS, PageRank, component labeling): on the
// benchmark's pinned graphs it is 8-10x smaller than the raw CSR arrays
// (20-25 bits per edge against ≈200) at a 1.1-2x traversal slowdown —
// direction-optimising BFS ≈1.2-1.5x, a sequential scan ≈1.5x, PageRank
// ≈1.1-1.2x, because it decodes each in-list once per call and iterates over
// the decoded arrays (README "Performance"). Use the compact v2 storage stream
// (graphio.WritePacked) for on-disk footprint and interchange, the servable
// image (WriteServable, OpenPacked) when graphs are served from disk and
// restarts must not re-decode; use the raw CSR (graph.Graph) when algorithms need canonical
// EdgeIDs, weights on arcs, or maximum traversal speed.
package succinct
