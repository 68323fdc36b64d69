package schemes

import (
	"strings"
	"testing"
)

// FuzzParseScheme throws arbitrary spec strings at the registry parser. For
// any input Parse accepts, the canonical spec must be a fixpoint:
// Spec(Parse(Spec(Parse(s)))) == Spec(Parse(s)) — the invariant the
// server's variant-cache Keys and both CLIs rely on. Parse must never
// panic, accepted or not.
func FuzzParseScheme(f *testing.F) {
	// Seed corpus: every spec shape used across the tests, examples, and
	// docs — valid, invalid, and pathological.
	for _, seed := range []string{
		"uniform", "uniform:p=0.25", "uniform:p=0.5,seed=99", "uniform:p=x", "uniform:q=0.5",
		"vertexsample", "vertexsample:p=0.75",
		"spectral", "spectral:p=2,variant=avgdeg,reweight=true", "spectral:p=1,variant=logn,reweight=false",
		"tr", "tr:p=0.5,x=2", "tr:p=0.5,x=2,variant=EO", "tr:variant=maxweight",
		"tr-eo", "tr-eo:p=0.8", "tr-ct:p=0.3", "tr-maxweight:p=1", "tr-collapse:p=0.2",
		"tr-eo-redirect:p=0.6",
		"lowdeg", "lowdeg-iter", "lowdeg:p=0.3",
		"spanner", "spanner:k=16,mode=perpair", "spanner:k=8,mode=zz",
		"cut", "cut:rho=3", "cut:rho=auto", "cut:rho=-1",
		"summarize", "summarize:eps=0.2,iters=4",
		"tr-eo:p=0.8|spanner:k=8", "uniform:p=0.7|spectral:p=2|spanner:k=4",
		"uniform:p=0.9|uniform:p=0.9", "tr-collapse:p=1|tr-collapse:p=1",
		"", "|", ":", "a:b", "uniform:", "uniform:p=", "uniform:=0.5", "uniform:p=0.5,",
		"uniform:p=NaN", "uniform:p=+Inf", "uniform:workers=2", "uniform:seed=1|uniform:seed=2",
		"tr:x=3", "tr-eo:x=2", "summarize:iters=0", "spanner:k=0",
		"spectral:p=NaN", "cut:rho=nan", "summarize:eps=NaN", "tr-eo:p=NaN", "uniform:p=0.5,p=0.9",
		"tr:variant=EO,variant=CT", "relabel:order=bfs", "cut:rho=-Inf", "spectral:p=5e-324",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if len(spec) > 1024 {
			return // bound pipeline length, not parser coverage
		}
		s, err := Parse(spec)
		if err != nil {
			return // rejected input; all that matters is no panic
		}
		canonical := Spec(s)
		s2, err := Parse(canonical)
		if err != nil {
			t.Fatalf("canonical spec %q (of accepted %q) does not re-parse: %v", canonical, spec, err)
		}
		if again := Spec(s2); again != canonical {
			t.Fatalf("canonical spec is not a fixpoint: %q -> %q -> %q", spec, canonical, again)
		}
		// NaN is inside no parameter range: it would compare false against
		// every bound, run as whatever the kernel makes of it, and key the
		// variant cache under a spec no other spelling reaches.
		if strings.Contains(strings.ToLower(canonical), "nan") {
			t.Fatalf("accepted %q canonicalises to %q", spec, canonical)
		}
		// Canonical specs of single-stage schemes must not smuggle in
		// pipeline or stage separators beyond what the grammar allows.
		if _, isPipe := s.(*Pipeline); !isPipe && strings.Contains(canonical, "|") {
			t.Fatalf("single scheme %q produced pipeline spec %q", spec, canonical)
		}
	})
}
