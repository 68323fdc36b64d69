package oracle

func Count(n int) int { return n }

func ReferenceTriangles(n int) int { return n }
