package slimgraph

// Deprecated: a test may say so.
func oldHelper() {}
