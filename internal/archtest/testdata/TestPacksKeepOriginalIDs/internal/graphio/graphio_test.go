package graphio

import "slimgraph/internal/succinct"

func permuted() succinct.SnapshotHeader { return succinct.SnapshotHeader{Permuted: true} }
