package parallel

func SumFloat64(n int, f func(int) float64) float64 { return 0 } // want
