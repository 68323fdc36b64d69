package triangles

func Count(workers int) int64 { return 0 }

func CountApprox(p float64, workers int) float64 { return 0 }

func CountApproxOn(p float64, workers int) float64 { return 0 }

func CountExact(workers int) int64 { return 0 } // want
