package succinct

type PackedGraph struct{}

func WithOrder(order string) int { return 0 } // want

func (pg *PackedGraph) OriginalID(v int32) int32 { return v } // want

func header(permuted bool) SnapshotHeader {
	h := SnapshotHeader{Permuted: permuted} // want
	h.Permuted = true                       // want
	return h
}
