module slimgraph/benchmark

go 1.24

require slimgraph v0.0.0

replace slimgraph => ../
