package parallel

func SumFloat64Ref() {}
