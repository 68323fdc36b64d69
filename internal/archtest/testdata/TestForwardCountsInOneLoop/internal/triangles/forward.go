package triangles

type Forward struct{}

func (f *Forward) Count(workers int) int64 { return f.countRange(0, 1) }

func (f *Forward) countRange(lo, hi int) int64 { return 0 }

func (f *Forward) countHubs(lo, hi int) int64 { return 0 } // want

func (f *Forward) CountPart(part, of int) int64 { return 0 } // want
