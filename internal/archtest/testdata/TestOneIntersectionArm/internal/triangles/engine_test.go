package triangles

func intersectCount(a, b []int32) int { return 0 } // want
