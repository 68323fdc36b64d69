package core

type SG struct{}

func (sg *SG) Graph() any { return nil } // want
