package slimgraph

// Uniform samples edges.
//
// Deprecated: use ParseScheme("uniform:p=…"). // want
func Uniform(p float64) float64 { return p }

var hint = "Deprecated: the old name" // want
