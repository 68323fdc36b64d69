package traverse

// BFSOn is one of the forwards benchmark/ still calls.
func BFSOn(g, root, workers int) int { return BFS(g, root, workers) }

func BFS(g, root, workers int) int { return g + root + workers }

func DFSOn(g, root int) int { return g + root } // want
