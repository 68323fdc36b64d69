package schemes

func NewUniformForTest(p float64) float64 { return p } // want
