package main

import (
	"bytes"
	"strings"
	"testing"
)

func sum(better string, bound float64, values ...float64) *summary {
	return summarize(metric{Unit: "ms", Better: better, Bound: bound}, "w", values)
}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name     string
		a, b     *summary
		absolute bool
		want     verdict
	}{
		{"lower: within bound", sum("lower", 0.10, 100, 101, 99), sum("lower", 0.10, 105, 106, 104), false, verdictOK},
		{"lower: worse than bound", sum("lower", 0.10, 100, 101, 99), sum("lower", 0.10, 120, 121, 119), false, verdictRegressed},
		{"lower: much better", sum("lower", 0.10, 100, 101, 99), sum("lower", 0.10, 50, 51, 49), false, verdictOK},
		{"higher: drop beyond bound", sum("higher", 0.10, 100, 101, 99), sum("higher", 0.10, 80, 81, 79), false, verdictRegressed},
		{"higher: rise", sum("higher", 0.10, 100, 101, 99), sum("higher", 0.10, 130, 131, 129), false, verdictOK},
		// Spread wider than the bound and overlapping ranges: the noise
		// could hide a regression the bound is meant to catch.
		{"noisy and overlapping", sum("lower", 0.05, 80, 100, 120, 90, 110), sum("lower", 0.05, 85, 104, 125, 95, 112), false, verdictUnresolved},
		// Noisy, but every run of the change is worse than every run of
		// the parent: that is a regression, not noise.
		{"noisy but disjoint", sum("lower", 0.05, 80, 100, 120, 90, 110), sum("lower", 0.05, 180, 200, 220, 190, 210), false, verdictRegressed},
		{"noisy, disjoint and better", sum("lower", 0.05, 80, 100, 120, 90, 110), sum("lower", 0.05, 40, 50, 60, 45, 55), false, verdictOK},
		{"absolute: zero stays zero", sum("lower", 0, 0, 0, 0), sum("lower", 0, 0, 0, 0), true, verdictOK},
		{"absolute: any failure regresses", sum("lower", 0, 0, 0, 0), sum("lower", 0, 0.01, 0.01, 0), true, verdictRegressed},
	} {
		if got, _ := judge(tc.a, tc.b, tc.absolute); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFilesAppliesPerWorkloadBounds(t *testing.T) {
	file := func(resident float64) *resultsFile {
		f := &resultsFile{Seconds: 20, Scale: 14, GOMAXPROCS: 2, Workloads: map[string]*workloadResults{}}
		for _, name := range []string{wMapped, wChurn} {
			w := &workloadResults{}
			for i := 0; i < 5; i++ {
				w.Runs = append(w.Runs, &runResult{Workload: name, Metrics: map[string]float64{"resident_mb": resident, "failed_share": 0}})
			}
			w.fill(name)
			f.Workloads[name] = w
		}
		return f
	}
	// 5% more resident memory: beyond serve-mapped's 2%, within serve-churn's 10%.
	var out bytes.Buffer
	regressed, unresolved := compareFiles(&out, file(100), file(105))
	if regressed != 1 || unresolved != 0 {
		t.Fatalf("regressed=%d unresolved=%d, want 1 and 0\n%s", regressed, unresolved, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "resident_mb") && strings.Contains(line, wMapped) != strings.Contains(line, string(verdictRegressed)) {
			t.Errorf("unexpected verdict line: %s", line)
		}
	}
}
