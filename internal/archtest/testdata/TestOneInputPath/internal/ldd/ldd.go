package ldd

type Decomposition struct{ Parent []int32 }

func (d *Decomposition) TreeEdges() [][2]int32 { return nil } // want
