package cluster

func HistogramRange(lo, hi int) int { return hi - lo } // want
