package ldd

func FindEdge(d *Decomposition, u, v int32) bool { return false } // want
