package triangles

func CountSlice(f *Forward, i, of int) int64 { return countRange(f, []uint16(nil), 0, 1) }
