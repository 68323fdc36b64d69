package main

import "slimgraph/internal/experiments"

var drivers = map[string]func(){ // want
	"table5": experiments.Table5, // want
}

func main() { experiments.All() } // want
