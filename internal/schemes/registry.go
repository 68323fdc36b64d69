package schemes

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"slimgraph/internal/graph"
)

// Kind is the type of a scheme parameter.
type Kind int

const (
	Float Kind = iota // a float64 in the closed range [Min, Max]
	Int               // an int in the closed range [Min, Max]
	Bool              // true or false (anything strconv.ParseBool reads)
	Enum              // one of Values, matched case-insensitively
)

func (k Kind) String() string { return [...]string{"float", "int", "bool", "enum"}[k] }

// Param is one row of a scheme's parameter table: everything the registry
// needs to parse the parameter from a spec, check it, default it, print it
// back canonically and document it.
type Param struct {
	Key  string
	Kind Kind
	// Default is the value an absent key takes, in spec syntax.
	Default string
	// Min and Max bound a Float or Int, both ends included. NaN is inside
	// no range. An open lower end at zero is Min: SmallestNonzeroFloat64.
	Min, Max float64
	// Values lists what an Enum accepts, in the canonical spelling Params
	// prints and Args.Enum returns.
	Values []string
	// Auto marks a Float the kernel can choose itself: the word "auto" and
	// every value <= 0 mean "automatic", print as "auto" and read as 0.
	Auto bool
	// Quiet leaves the parameter out of the canonical string while it sits
	// at its default (tr prints x only when it is 2).
	Quiet bool
	// Sugar makes an Enum shorthand for other registry names: each value
	// maps to the name the stage really means, so "tr:variant=EO" is
	// "tr-eo" — built, labelled and checked as that name. A Sugar parameter
	// never appears in a canonical string.
	Sugar map[string]string
}

// Range renders the accepted values for error messages and listings.
func (p Param) Range() string {
	switch p.Kind {
	case Float, Int:
		return fmt.Sprintf("[%g, %g]", p.Min, p.Max)
	case Enum:
		return strings.Join(p.Values, "|")
	}
	return "true|false"
}

// String renders the row for usage text: "p=0.5", or for an Enum the
// default followed by the alternatives, "mode=pervertex|perpair".
func (p Param) String() string {
	s := p.Key + "=" + p.Default
	for _, v := range p.Values {
		if v != p.Default {
			s += "|" + v
		}
	}
	return s
}

// canon checks one raw spec value against the row and returns its canonical
// spelling.
func (p Param) canon(raw string) (string, error) {
	switch p.Kind {
	case Float:
		if p.Auto && raw == "auto" {
			return raw, nil
		}
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return "", err
		}
		if !(f >= p.Min && f <= p.Max) { // written so that NaN fails
			return "", fmt.Errorf("%g outside %s", f, p.Range())
		}
		if p.Auto && f <= 0 {
			return "auto", nil
		}
		return strconv.FormatFloat(f, 'g', -1, 64), nil
	case Int:
		n, err := strconv.Atoi(raw)
		if err != nil {
			return "", err
		}
		if !(float64(n) >= p.Min && float64(n) <= p.Max) {
			return "", fmt.Errorf("%d outside %s", n, p.Range())
		}
		return strconv.Itoa(n), nil
	case Bool:
		b, err := strconv.ParseBool(raw)
		return strconv.FormatBool(b), err
	}
	for _, v := range p.Values {
		if strings.EqualFold(raw, v) {
			return v, nil
		}
	}
	return "", fmt.Errorf("unknown value %q (%s)", raw, p.Range())
}

// Registration declares one named scheme: a kernel plus its parameter
// table. The registry does the rest — parsing, range checks, defaults, the
// canonical spec, usage text, Result labels and timing.
type Registration struct {
	// Name is the spec name, e.g. "uniform" or "tr-eo".
	Name string
	// About is a one-line description for usage text; parameter defaults
	// are appended from Params, not written here.
	About string
	// Params is the parameter table, in the order the canonical spec prints
	// it. The keys seed and workers belong to every scheme and may not be
	// declared.
	Params []Param
	// Apply compresses g with the resolved arguments. g may be packed or
	// mapped, and a kernel run through core.New reads it in place; only a
	// scheme that builds a graph on a new vertex set (summarize, relabel,
	// tr-collapse's contraction) takes a CSR of it through graph.CSROf. It
	// fills the Result's Output (and VertexMap / Aux where the scheme has
	// them); the registry stamps Scheme, Params, Input and Elapsed. a.Workers
	// may change how fast, never what: the output is fixed by g and a.Seed.
	Apply func(g graph.AdjacencyEdges, a Args) (*Result, error)

	defaults []string // canonical Default per row, filled by Register
}

// Usage renders the table for listings: "p=0.5, x=1, variant=basic|EO|…".
func (r Registration) Usage() string {
	rows := make([]string, len(r.Params))
	for i, p := range r.Params {
		rows[i] = p.String()
	}
	return strings.Join(rows, ", ")
}

var (
	regMu    sync.RWMutex
	registry = map[string]*Registration{}
)

// Register adds a scheme to the registry. It panics on an empty name, a nil
// kernel, a name containing spec metacharacters, a duplicate, or a table
// that contradicts itself (a repeated or reserved key, a default its own
// row rejects, a Sugar value without a target) — all programmer errors at
// init time.
func Register(r Registration) {
	if r.Name == "" || r.Apply == nil {
		panic("schemes: Register needs a name and a kernel")
	}
	if strings.ContainsAny(r.Name, ":|,= \t\n") {
		panic(fmt.Sprintf("schemes: invalid registry name %q", r.Name))
	}
	r.defaults = make([]string, len(r.Params))
	for i, p := range r.Params {
		if p.Key == "seed" || p.Key == "workers" || index(r.Params, p.Key) != i {
			panic(fmt.Sprintf("schemes: %s declares parameter %q twice or reserved", r.Name, p.Key))
		}
		def, err := p.canon(p.Default)
		if err != nil {
			panic(fmt.Sprintf("schemes: %s parameter %s: default: %v", r.Name, p.Key, err))
		}
		r.defaults[i] = def
		for _, v := range p.Values {
			if p.Sugar != nil && p.Sugar[v] == "" {
				panic(fmt.Sprintf("schemes: %s parameter %s: value %q is sugar for no name", r.Name, p.Key, v))
			}
		}
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[r.Name]; dup {
		panic(fmt.Sprintf("schemes: duplicate registration of %q", r.Name))
	}
	registry[r.Name] = &r
}

// index returns the row of key in a parameter table, or -1.
func index(params []Param, key string) int {
	for i, p := range params {
		if p.Key == key {
			return i
		}
	}
	return -1
}

func lookup(name string) (*Registration, error) {
	regMu.RLock()
	r, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("schemes: unknown scheme %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	return r, nil
}

// Lookup returns the registration for name.
func Lookup(name string) (Registration, bool) {
	r, err := lookup(name)
	if err != nil {
		return Registration{}, false
	}
	return *r, true
}

// Names returns all registered scheme names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// New builds a registered scheme by name with every parameter at its
// default: Parse of the bare name.
func New(name string, defaults ...Option) (Scheme, error) {
	return build(name, name, "", defaults)
}

// Parse builds a Scheme from a spec string. The grammar is
//
//	spec   := stage ("|" stage)*
//	stage  := name [":" params]
//	params := key "=" value ("," key "=" value)*
//
// e.g. "uniform:p=0.5" or "tr-eo:p=0.8|spanner:k=8". A multi-stage spec
// yields a *Pipeline. The defaults (WithSeed, WithWorkers) apply to every
// stage; a stage's own seed= or workers= wins. Every other key must be a
// row of the named scheme's parameter table, and no key may be given twice.
// Spec(Parse(s)) round-trips to an equivalent scheme.
func Parse(spec string, defaults ...Option) (Scheme, error) {
	stages := strings.Split(spec, "|")
	if len(stages) == 1 {
		return parseStage(stages[0], defaults)
	}
	built := make([]Scheme, len(stages))
	for i, st := range stages {
		s, err := parseStage(st, defaults)
		if err != nil {
			return nil, err
		}
		built[i] = s
	}
	return NewPipeline(built...)
}

func parseStage(stage string, defaults []Option) (Scheme, error) {
	stage = strings.TrimSpace(stage)
	if stage == "" {
		return nil, fmt.Errorf("schemes: empty stage in spec")
	}
	name, params, _ := strings.Cut(stage, ":")
	return build(stage, strings.TrimSpace(name), params, defaults)
}

type pair struct{ key, val string }

// splitParams cuts "key=value,key=value" into pairs. A key given twice is
// refused rather than letting the later value silently win: the answer
// would be to a different question than the one the first value asked.
func splitParams(stage, params string, pairs []pair) ([]pair, error) {
	for rest, more := params, strings.TrimSpace(params) != ""; more; {
		var kv string
		kv, rest, more = strings.Cut(rest, ",")
		key, val, ok := strings.Cut(kv, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || key == "" || val == "" {
			return nil, fmt.Errorf("schemes: malformed parameter %q in %q (want key=value)", kv, stage)
		}
		for _, p := range pairs {
			if p.key == key {
				return nil, fmt.Errorf("schemes: %q: parameter %s given twice", stage, key)
			}
		}
		pairs = append(pairs, pair{key, val})
	}
	return pairs, nil
}

// build resolves one stage: its registration, then every key=value against
// the registration's table.
func build(stage, name, params string, defaults []Option) (Scheme, error) {
	reg, err := lookup(name)
	if err != nil {
		return nil, err
	}
	var buf [8]pair
	pairs, err := splitParams(stage, params, buf[:0])
	if err != nil {
		return nil, err
	}
	fail := func(key string, err error) error {
		return fmt.Errorf("schemes: %q: parameter %s: %w", stage, key, err)
	}
	// A Sugar row renames the stage before anything else is checked, so the
	// other keys meet the table of the scheme that will actually run.
	for _, p := range reg.Params {
		for i, kv := range pairs {
			if p.Sugar == nil || kv.key != p.Key {
				continue
			}
			v, err := p.canon(kv.val)
			if err != nil {
				return nil, fail(kv.key, err)
			}
			if reg, err = lookup(p.Sugar[v]); err != nil {
				return nil, err
			}
			pairs = append(pairs[:i], pairs[i+1:]...)
			break
		}
	}
	s := &scheme{reg: reg}
	a := &s.args
	for _, set := range defaults {
		set(a)
	}
	a.params, a.values = reg.Params, append([]string(nil), reg.defaults...)
	for _, kv := range pairs {
		switch i := index(reg.Params, kv.key); {
		case kv.key == "seed":
			a.Seed, err = strconv.ParseUint(kv.val, 10, 64)
		case kv.key == "workers":
			a.Workers, err = strconv.Atoi(kv.val)
		case i < 0:
			return nil, fmt.Errorf("schemes: %s does not accept option %q (accepted: %s)",
				reg.Name, kv.key, reg.accepted())
		default:
			a.values[i], err = reg.Params[i].canon(kv.val)
		}
		if err != nil {
			return nil, fail(kv.key, err)
		}
	}
	return s, nil
}

// accepted lists the keys a stage of this scheme may set.
func (r *Registration) accepted() string {
	keys := make([]string, 0, len(r.Params)+2)
	for _, p := range r.Params {
		keys = append(keys, p.Key)
	}
	return strings.Join(append(keys, "seed", "workers"), ",")
}
