package server

import "slimgraph/internal/schemes"

type compressed struct {
	res *schemes.Result // want
}
