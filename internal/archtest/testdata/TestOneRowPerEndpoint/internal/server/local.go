package server

type Local struct{}

func (l *Local) BFS(name string) (any, error) { return l.Query(name) }

func (l *Local) PageRank(name string) (any, error) { return l.Query(name) }

func (l *Local) Degrees(name string) (any, error) { // want
	q := name
	return l.Query(q)
}

func (l *Local) Compare(name string) (any, error) { return l.Query(name) } // want

func (l *Local) Query(name string) (any, error) { return nil, nil }
