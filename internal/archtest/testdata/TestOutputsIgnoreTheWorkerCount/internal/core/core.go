package core

type SG struct{}

func (sg *SG) ConsiderOnce(e int32) bool { return false } // want

func (sg *SG) MarkConsidered(e int32) {} // want

func (sg *SG) WasConsidered(e int32) bool { return false } // want

func (sg *SG) DelOnce(e int32) {}
