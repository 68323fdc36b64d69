package triangles

type Forward struct{}

func (f *Forward) Count(workers int) int64 { return countRange(f, []uint16(nil), 0, 1) }

func countRange[E ~uint16 | ~int32](f *Forward, nbr []E, lo, hi int) int64 { return 0 }

func countRange32(f *Forward, nbr []int32, lo, hi int) int64 { return 0 } // want

func countRows(f *Forward) int64 { return 0 } // want

func (f *Forward) countRange(lo, hi int) int64 { return 0 } // want

func (f *Forward) countHubs(lo, hi int) int64 { return 0 } // want

func (f *Forward) CountPart(part, of int) int64 { return 0 } // want
