package server

import (
	"os"

	"slimgraph/internal/succinct"
)

type compressed struct{ adj any }

func (c *compressed) pin() {} // want

func (c compressed) mapped() bool { // want
	_, ok := c.adj.(*succinct.Mapped) // want
	return ok
}

func kind(adj any) string {
	switch adj.(type) {
	case *succinct.Mapped: // want
		return "mapped"
	}
	return "heap"
}

type store struct{ dir string }

func (s *store) clearVariants() { os.RemoveAll(s.dir) }

func (s *store) removeGraph() { os.RemoveAll(s.dir) } // want
