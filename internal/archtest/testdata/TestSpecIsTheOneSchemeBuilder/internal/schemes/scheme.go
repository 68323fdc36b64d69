package schemes

type Option func(*int)

func WithSeed(s uint64) Option { return nil }

func WithWorkers(w int) Option { return nil }

func WithTRVariant(v string) Option { return nil } // want

func NewSpanner(k int) int { return k } // want
