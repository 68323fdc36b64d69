package schemes

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
)

// registryGraph is triangle-rich so every scheme (TR family included) has
// work to do.
func registryGraph() *graph.Graph {
	return gen.PlantedPartition(400, 20, 0.6, 400, 7)
}

func TestEveryRegisteredSchemeConstructsAndApplies(t *testing.T) {
	g := registryGraph()
	for _, name := range Names() {
		s, err := New(name, WithSeed(11), WithWorkers(2))
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() == "" {
			t.Fatalf("New(%q): empty Name", name)
		}
		res, err := s.Apply(g)
		if err != nil {
			t.Fatalf("%s.Apply: %v", name, err)
		}
		if res.Output == nil || res.Input != g {
			t.Fatalf("%s: malformed Result", name)
		}
		if res.Scheme != s.Name() || res.Params != s.Params() {
			t.Fatalf("%s: Result labels %s(%s) do not match scheme %s(%s)",
				name, res.Scheme, res.Params, s.Name(), s.Params())
		}
	}
}

// TestNewRejectsInvalidParams is generated from the registry: every row of
// every registered parameter table is probed through the one construction
// path for the contract the table states — the default round-trips, both
// ends of the range are inside it, one step beyond either end is not, NaN is
// inside no range, a key given twice or not in the table is refused (the
// latter listing the keys that are).
func TestNewRejectsInvalidParams(t *testing.T) {
	accept := func(spec string) Scheme {
		t.Helper()
		s, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			return nil
		}
		if again, err := Parse(Spec(s)); err != nil || Spec(again) != Spec(s) {
			t.Errorf("Parse(%q): canonical %q is not a fixpoint (%v)", spec, Spec(s), err)
		}
		return s
	}
	reject := func(spec string, mention ...string) {
		t.Helper()
		_, err := Parse(spec)
		if err == nil {
			t.Errorf("Parse(%q): expected an error", spec)
			return
		}
		for _, m := range mention {
			if !strings.Contains(err.Error(), m) {
				t.Errorf("Parse(%q): error %q does not mention %q", spec, err, m)
			}
		}
	}
	float := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	for _, name := range Names() {
		reg, _ := Lookup(name)
		bare := accept(name)
		accepted := "accepted: "
		for _, p := range reg.Params {
			accepted += p.Key + ","
			set := name + ":" + p.Key + "="
			if s := accept(set + p.Default); s != nil && Spec(s) != Spec(bare) {
				t.Errorf("%s%s is %q, the bare name %q", set, p.Default, Spec(s), Spec(bare))
			}
			reject(set+p.Default+","+p.Key+"="+p.Default, p.Key, "twice")
			switch p.Kind {
			case Float:
				accept(set + float(p.Min))
				accept(set + float(p.Max))
				reject(set+"NaN", p.Key)
				if !math.IsInf(p.Min, -1) {
					reject(set+float(math.Nextafter(p.Min, math.Inf(-1))), p.Key)
				}
				if !math.IsInf(p.Max, 1) {
					reject(set+float(math.Nextafter(p.Max, math.Inf(1))), p.Key)
				}
			case Int:
				accept(set + strconv.Itoa(int(p.Min)))
				reject(set+strconv.Itoa(int(p.Min)-1), p.Key)
				if math.IsInf(p.Max, 1) {
					accept(set + strconv.Itoa(math.MaxInt))
				} else {
					accept(set + strconv.Itoa(int(p.Max)))
					reject(set+strconv.Itoa(int(p.Max)+1), p.Key)
				}
				reject(set+"1.5", p.Key)
			case Bool:
				accept(set + "true")
				accept(set + "false")
				reject(set+"maybe", p.Key)
			case Enum:
				for _, v := range p.Values {
					for _, spelling := range []string{v, strings.ToUpper(v), strings.ToLower(v)} {
						s := accept(set + spelling)
						if want, sugar := p.Sugar[v]; sugar && s != nil && s.Name() != want {
							t.Errorf("%s%s built %q, want %q", set, spelling, s.Name(), want)
						}
					}
				}
				reject(set+"no-such-value", p.Key, p.Values[0])
			}
		}
		reject(name+":no-such-key=1", name, "no-such-key", accepted+"seed,workers")
	}
}

func TestNewUnknownScheme(t *testing.T) {
	if _, err := New("no-such-scheme"); err == nil ||
		!strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("expected unknown-scheme error, got %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"uniform:p",           // malformed param
		"uniform:p=x",         // non-numeric
		"uniform:q=0.5",       // unknown key
		"uniform:p=0.5|",      // empty pipeline stage
		"bogus:p=0.5",         // unknown scheme
		"spanner:k=8,mode=zz", // bad enum
		"tr:p=0.5,x=2,variant=EO",
		"tr-eo:x=2",        // x=2 is basic-only
		"tr-ct:variant=eo", // alias names fix their variant
		"uniform:k=3",      // k is not a uniform parameter
		"uniform:eps=0.1",  // neither is eps
		"lowdeg:p=0.5",
		"relabel:order=none", // a no-op is not an ordering
		"uniform:p=NaN", "spectral:p=NaN", "cut:rho=NaN", "summarize:eps=NaN", "tr-eo:p=NaN",
		"uniform:p=0.5,p=0.9",           // a repeated key never silently wins
		"uniform:p=0.5,seed=1,seed=2",   // seed and workers included
		"tr:variant=EO,variant=CT",      // and the sugar key
		"uniform:p=0.5|uniform:p=1,p=1", // in any stage
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error", spec)
		}
	}
}

func TestParseRoundTripsSpec(t *testing.T) {
	specs := []string{
		"uniform:p=0.25",
		"vertexsample:p=0.75",
		"spectral:p=2,variant=avgdeg,reweight=true",
		"tr:p=0.5,x=2",
		"tr-eo:p=0.8",
		"tr-ct:p=0.3",
		"tr-maxweight:p=1",
		"tr-collapse:p=0.2",
		"tr-eo-redirect:p=0.6",
		"lowdeg",
		"lowdeg-iter",
		"spanner:k=16,mode=perpair",
		"cut:rho=auto",
		"cut:rho=3",
		"summarize:eps=0.2,iters=4",
		"tr-eo:p=0.8|spanner:k=8,mode=pervertex",
	}
	for _, spec := range specs {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		got := Spec(s)
		// The round trip must re-parse to a scheme with the identical
		// canonical spec — defaults may expand (e.g. mode=pervertex), but
		// the expansion must be a fixpoint.
		s2, err := Parse(got)
		if err != nil {
			t.Fatalf("Parse(Spec(%q)) = Parse(%q): %v", spec, got, err)
		}
		if Spec(s2) != got {
			t.Errorf("spec not canonical: %q -> %q -> %q", spec, got, Spec(s2))
		}
	}
}

func TestParseAppliesDefaultsAndSpecWins(t *testing.T) {
	s, err := Parse("uniform:p=0.5,seed=99", WithSeed(1), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	a := s.(*scheme).args
	if a.Seed != 99 {
		t.Fatalf("spec seed should override default, got %d", a.Seed)
	}
	if a.Workers != 3 {
		t.Fatalf("default workers lost, got %d", a.Workers)
	}
}

func TestLookupAndNames(t *testing.T) {
	names := Names()
	if len(names) < 12 {
		t.Fatalf("registry too small: %v", names)
	}
	for _, want := range []string{"uniform", "spectral", "tr", "tr-eo", "spanner",
		"cut", "vertexsample", "lowdeg", "summarize"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("Lookup(%q) missing", want)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
}

func TestRegisterRejectsBadNames(t *testing.T) {
	for _, bad := range []Registration{
		{},
		{Name: "no-kernel"},
		{Name: "x y", Apply: uniform},
		{Name: "a|b", Apply: uniform},
		{Name: "uniform", Apply: uniform}, // duplicate
		{Name: "bad-table-1", Apply: uniform, Params: []Param{keepProbability, keepProbability}},
		{Name: "bad-table-2", Apply: uniform, Params: []Param{{Key: "seed", Kind: Int, Default: "1", Max: 9}}},
		{Name: "bad-table-3", Apply: uniform, Params: []Param{{Key: "p", Kind: Float, Default: "2", Max: 1}}},
		{Name: "bad-table-4", Apply: uniform, Params: []Param{{Key: "m", Kind: Enum, Default: "c", Values: []string{"a", "b"}}}},
		{Name: "bad-table-5", Apply: uniform, Params: []Param{{Key: "m", Kind: Enum, Default: "a", Values: []string{"a", "b"},
			Sugar: map[string]string{"a": "uniform"}}}}, // b is sugar for nothing
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic", bad.Name)
				}
			}()
			Register(bad)
		}()
	}
}
