package succinct

type SnapshotHeader struct{ Permuted bool }

func ParseHeader(flags int) SnapshotHeader { return SnapshotHeader{Permuted: flags&4 != 0} }
