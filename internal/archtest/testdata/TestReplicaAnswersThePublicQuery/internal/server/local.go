package server

type Reply struct{} // want

type Local struct{}

func (l *Local) Compute(q string) (any, error) { return nil, nil } // want
