package graphio

func unZigZag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) } // want

var w = UnZigZag(3) // want

func UnZigZag(v uint64) int64 { return unZigZag(v) } // want
