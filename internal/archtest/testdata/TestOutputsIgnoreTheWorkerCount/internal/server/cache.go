package server

type Key struct {
	Spec    string
	Seed    uint64
	Workers int // want
}

type QueryParams struct {
	Spec    string
	Workers int
}
