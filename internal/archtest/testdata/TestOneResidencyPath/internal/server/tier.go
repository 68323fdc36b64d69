package server

import "slimgraph/internal/succinct"

func writeServable(w any) { succinct.WriteServable(w) } // want

func spill(w any) { succinct.WriteServable(w) } // want
