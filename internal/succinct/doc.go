// Package succinct is the compact storage subsystem of Slim Graph: a
// varint/zig-zag delta ("gap") codec for sorted adjacency lists and a
// blocked, bit-packed CSR — PackedGraph — that graph algorithms traverse
// directly, without inflating back to graph.Graph.
//
// The paper composes lossy schemes with a compact lossless representation
// to report storage reductions (§5); Log(Graph) (Besta et al.) shows that a
// bit-packed, delta-encoded CSR can be traversed at near-raw speed. This
// package supplies both halves:
//
//   - Codec (varint.go): LEB128 varints, zig-zag signed mapping, and a
//     per-list layout for sorted adjacency — varint(degree), then the first
//     neighbor as a zig-zag delta from the owning vertex, then strictly
//     positive gaps encoded as varint(gap-1). The codec is varint.go: no
//     other file reads or writes a list's bytes (CI greps for it), and the
//     block-level readers — Unpack, ForEdges, Verify, DecodeStored — are
//     back-to-back DecodeList scans. A candidate codec supplies AppendList
//     and its byte accounting listWidths; the three readers DecodeList
//     (bulk), firstInSet (early exit) and streamList (no destination);
//     listLen; and MaxPayloadBytes. The readers share one corrupt-input
//     contract. A list whose length header does not decode, or declares
//     more entries than bytes remain, has length 0 and is empty to all
//     three; so is one whose first neighbor does not decode or lies outside
//     [0, 2^31), though listLen, which reads the header alone (anything
//     more would cost a decode per Degree), still reports what it declares.
//     Damage behind the first neighbor — an undecodable gap, a gap or a
//     neighbor of 2^31 or more — makes DecodeList fail in place, returning
//     nothing, while firstInSet and streamList, which cannot take back what
//     they delivered, stop there: the neighbors in front of the damage are
//     real, and nothing is invented behind it. No reader returns a
//     neighbor outside [0, 2^31), reads outside the payload, or runs longer
//     than the payload is.
//
//   - PackedGraph (packed.go): every vertex's adjacency encoded with the
//     codec into one payload byte stream, addressed by a two-level offset
//     directory in the Log(Graph) style — an absolute byte offset per block
//     of ~64 vertices plus a bit-packed per-vertex offset relative to the
//     block start, using exactly ceil(log2(max block payload)) bits per
//     vertex. Degree, Neighbors, ForNeighbors, ScanInLists and
//     FirstInNeighborIn decode on the fly; Unpack restores a bit-identical
//     graph.Graph.
//
//   - Snapshot header (header.go): the 16-byte prefix — magic, version,
//     flags, minor, n, m — every snapshot version starts with, graphio's
//     v1 and v2.0 and the servable image alike. SnapshotHeader.Append and
//     ParseSnapshotHeader are its only writer and reader.
//
//   - Storage stream (format.go): the byte sections of the graphio v2
//     snapshot ("packed" format). Only the canonical direction is stored —
//     directed out-lists, or the forward (w > v) half of each undirected
//     adjacency — so an undirected snapshot holds every edge once, gap
//     encoded. A per-block directory (payload offset + first edge index)
//     makes encode and decode block-parallel and deterministic for any
//     worker count: blocks are encoded independently and concatenated in
//     block order, so the bytes never depend on scheduling.
//
//   - Servable image (servable.go, mapped.go): format version 2, minor 1 —
//     the PackedGraph's complete section set (payloads, directory,
//     bit-packed relative offsets, edge starts, permutation, weights)
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
// simple neighborhood scans (BFS, PageRank, component labeling): it is
// typically 3-6x smaller than the raw CSR arrays at a 2-4x traversal
// slowdown. Use the v2 storage stream (graphio.WritePacked) for on-disk
// footprint and interchange, the servable minor-1 image (WriteServable,
// OpenPacked) when graphs are served from disk and restarts must not
// re-decode; use the raw CSR (graph.Graph) when algorithms need canonical
// EdgeIDs, weights on arcs, or maximum traversal speed.
package succinct
