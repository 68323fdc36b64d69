package server

type Kernel struct {
	Parse  func(string) error
	Finish func(any) any // want
}

type Row struct{ PerVertex bool } // want
