package slimgraph
