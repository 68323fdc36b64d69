package server

import "os"

func (c *compressed) forTest() {}

func cleanup(dir string) { os.RemoveAll(dir) }
