package server

import "slimgraph/internal/succinct"

func materialize(pg *succinct.PackedGraph) any { return nil } // want

func decode(pg *succinct.PackedGraph) any { return pg.Unpack(0) } // want

func decodeAll(img []byte) any { return succinct.Unpack(img) } // want
