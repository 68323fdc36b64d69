package graphio

import "slimgraph/internal/succinct"

func WritePackedOrder(w any) error { return nil } // want

func read(h succinct.SnapshotHeader) bool { return h.Permuted }
