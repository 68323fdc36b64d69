package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"slimgraph/internal/experiments"
)

func slimbench(args ...string) (code int, stdout, stderr string) {
	var out, errs bytes.Buffer
	code = run(args, &out, &errs)
	return code, out.String(), errs.String()
}

func TestListPrintsEveryArtifactKey(t *testing.T) {
	code, out, _ := slimbench("-list")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if code != 0 || len(lines) != len(experiments.Artifacts) || len(lines) != 19 {
		t.Fatalf("exit %d, %d lines for %d artifacts:\n%s", code, len(lines), len(experiments.Artifacts), out)
	}
	want := "table2 table3 fig5 fig6a fig6b table5 table6 bfs pairs fig7 fig8 weighted timing lowrank cuts " +
		"abl-eo abl-spanner abl-upsilon guidelines"
	var keys []string
	for _, line := range lines {
		keys = append(keys, strings.Fields(line)[0])
	}
	if got := strings.Join(keys, " "); got != want {
		t.Fatalf("keys %q, want %q", got, want)
	}
}

func TestOnlyRunsTheNamedArtifacts(t *testing.T) {
	code, out, _ := slimbench("-scale", "0", "-only", "guidelines, fig6b")
	if code != 0 || strings.Count(out, "\n== ")+1 != 2 ||
		strings.Index(out, "== Figure 6 (right)") != 0 || !strings.Contains(out, "== §7.5") {
		t.Fatalf("exit %d, want Figure 6 (right) then §7.5 in presentation order:\n%s", code, out)
	}
}

func TestUnknownOnlyKeyIsRefusedBeforeAnythingRuns(t *testing.T) {
	for _, only := range []string{"nonsense", "table5,nonsense"} {
		code, out, errs := slimbench("-scale", "0", "-only", only)
		if code == 0 || out != "" || !strings.Contains(errs, `"nonsense"`) || strings.Contains(errs, "running") {
			t.Errorf("-only %s: exit %d, stdout %q, stderr %q", only, code, out, errs)
		}
	}
}

func TestModesExcludeEachOther(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "table5", "-compare", "uniform:p=0.5"},
		{"-only", "table5", "-frontier"},
		{"-compare", "uniform:p=0.5", "-frontier"},
	} {
		code, out, errs := slimbench(append([]string{"-scale", "0"}, args...)...)
		if code == 0 || out != "" || !strings.Contains(errs, "exclude each other") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", args, code, out, errs)
		}
	}
}

func TestCompareNamesABadSpec(t *testing.T) {
	code, out, _ := slimbench("-scale", "0", "-compare", "uniform:p=0.5;tr-eo:p=0.8|spanner:k=8")
	if code != 0 || strings.Count(out, "uniform:p=0.5") != 3 || !strings.Contains(out, "bits/edge") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	code, _, errs := slimbench("-scale", "0", "-compare", "uniform:p=0.5;nonsense:q=1")
	if code == 0 || !strings.Contains(errs, `unknown scheme "nonsense"`) {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
}

func TestFrontierPrintsJSON(t *testing.T) {
	code, out, errs := slimbench("-scale", "0", "-workers", "2", "-frontier")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	var f struct {
		Rows   []json.RawMessage `json:"rows"`
		Pareto []struct {
			Graph, Metric string
			Points        []json.RawMessage
		} `json:"pareto"`
	}
	if err := json.Unmarshal([]byte(out), &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) == 0 || len(f.Pareto) == 0 {
		t.Fatalf("%d rows, %d Pareto sets", len(f.Rows), len(f.Pareto))
	}
	for _, p := range f.Pareto {
		if len(p.Points) == 0 {
			t.Errorf("%s/%s: empty Pareto set", p.Graph, p.Metric)
		}
	}
}
