package schemes

type Registration struct {
	Name       string
	Sequential bool // want
}
