package cluster

const frameMagic = "SGF" // want

// The replica answers POST /internal/whole/bfs. // want
func decodeReply(b []byte) error { return nil } // want

func appendFrame(b []byte) []byte { return b } // want
