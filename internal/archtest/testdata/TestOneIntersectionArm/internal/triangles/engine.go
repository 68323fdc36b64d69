package triangles

func gallopTo(list []int32, v int32) int { return len(list) } // want

func (e *Engine) intersectEmit(a, b []int32) {} // want

type Engine struct{}
