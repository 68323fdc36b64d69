package triangles

func (f *Forward) CountRows() int64 { return 0 } // want
