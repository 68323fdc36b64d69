package cluster

const prDamping = 0.85 // want

func countForward(n int) int { return n } // want

func MergeHistograms(a, b []int64) []int64 { return append(a, b...) } // want
