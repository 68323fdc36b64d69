package triangles

type Engine struct{ Forward }

type Forward struct{}

func (f *Forward) Count(workers int) int64 { return 0 }

func (e *Engine) Count(workers int) int64 { return 0 } // want

func (en *Engine) countRange(lo, hi int) int64 { return 0 } // want
