package props

func GreedyRandomized(n int) int { return n } // want
