package core

type SG struct{}

func (sg *SG) RunTriangleKernelOn(k func()) { k() }

func (sg *SG) RunVertexKernelOn(k func()) { k() } // want
