package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// lastLine returns the last non-empty line of out.
func lastLine(out string) string {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	return lines[len(lines)-1]
}

// A deliberately wrong expected answer must show as failed operations and a
// non-zero exit status, on a served workload and on the batch one.
func TestCorrectnessGateTrips(t *testing.T) {
	for _, workload := range []string{wMapped, wBatch} {
		var stdout, stderr bytes.Buffer
		args := []string{"-workload", workload, "-scale", "8", "-seconds", "0.2", "-out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: healthy run exited %d: %s", workload, code, stderr.String())
		}
		var healthy driverLine
		if err := json.Unmarshal([]byte(lastLine(stdout.String())), &healthy); err != nil {
			t.Fatal(err)
		}
		if !healthy.Correct || healthy.Failed != 0 || healthy.Attempted < 1 {
			t.Fatalf("%s: healthy run reported %+v", workload, healthy)
		}

		stdout.Reset()
		stderr.Reset()
		code := run(append(args, "-break-gate"), &stdout, &stderr)
		var broken driverLine
		if err := json.Unmarshal([]byte(lastLine(stdout.String())), &broken); err != nil {
			t.Fatal(err)
		}
		if code == 0 || broken.Correct || broken.Failed == 0 {
			t.Errorf("%s: a wrong expected answer gave exit %d, correct=%v, failed=%d", workload, code, broken.Correct, broken.Failed)
		}
		if !strings.Contains(stdout.String(), "failed_share") || strings.Contains(stdout.String(), "failed_share                                          0 ") {
			t.Errorf("%s: failed_share did not rise above 0:\n%s", workload, stdout.String())
		}
	}
}

// The driver's line carries exactly the metrics BENCHMARK.json declares for
// the run kind, each with its unit.
func TestDriverLineMatchesDeclaration(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", wCluster, "--seed", "5", "--seconds", "0.2", "--trace", "0", "-scale", "8", "-out", t.TempDir()}
		declared := driverMetrics()
		if traced {
			args[7] = "1"
			declared = perLayer
		}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		var line driverLine
		if err := json.Unmarshal([]byte(lastLine(stdout.String())), &line); err != nil {
			t.Fatal(err)
		}
		if len(line.Metrics) != len(declared) {
			t.Errorf("traced=%v: %d metrics in the line, %d declared", traced, len(line.Metrics), len(declared))
		}
		for _, m := range declared {
			if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s missing or unit %q, want %q", traced, m.Name, got.Unit, m.Unit)
			}
		}
	}
}

// Smoke: all four workloads, untraced then traced, on graphs 64 times
// smaller than the pinned ones. Every declared metric must appear exactly
// once per reporting workload, under a well-formed name.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "8", "-seconds", "0.3", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, stderr.String(), stdout.String())
	}
	file, err := readResults(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !wellFormed.MatchString(m.Name) {
			t.Errorf("metric name %q is malformed", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %s is declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s has unit %q, direction %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, name := range workloadNames {
		w := file.Workloads[name]
		if w == nil || len(w.Runs) != 1 || w.Traced == nil {
			t.Fatalf("%s: missing runs", name)
		}
		if w.Runs[0].Failed != 0 || w.Traced.Failed != 0 {
			t.Errorf("%s: %d + %d failed operations", name, w.Runs[0].Failed, w.Traced.Failed)
		}
		for _, m := range endToEnd {
			// bfs_p95_ms needs 200 bfs samples, which a smoke run lacks.
			want := m.reportedOn(name) && m.Name != "bfs_p95_ms"
			if _, ok := w.Runs[0].Metrics[m.Name]; ok != want && m.Name != "bfs_p95_ms" {
				t.Errorf("%s: end-to-end metric %s reported=%v, want %v", name, m.Name, ok, want)
			}
			if strings.Count(stdout.String(), "\n"+m.Name+" ") < 1 && want {
				t.Errorf("%s was never printed", m.Name)
			}
		}
		if err := checkComplete(w.Traced.Metrics, perLayer); err != nil {
			t.Errorf("%s traced run: %v", name, err)
		}
		if w.Traced.TraceGap > 0.05 {
			t.Errorf("%s: self times miss the operation spans by %.1f%%", name, 100*w.Traced.TraceGap)
		}
		if _, err := os.Stat(filepath.Join(dir, name+".trace.json")); err != nil {
			t.Errorf("%s: no span file: %v", name, err)
		}
	}
	// Everything temporary is gone: only results and traces remain.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("temporary directory %s was left behind", e.Name())
		}
	}
	// Each per-layer name is printed once per traced run.
	for _, m := range perLayer {
		if got := strings.Count(stdout.String(), "\n"+m.Name+" "); got != len(workloadNames) {
			t.Errorf("%s printed %d times, want %d", m.Name, got, len(workloadNames))
		}
	}
}

// BENCHMARK.json must declare exactly what the harness reports to the
// driver: same workloads, names, units, directions and bounds.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark directory")
	}
	var decl struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, harness has %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: %q / %q differs from the harness", i, w.Name, w.Why)
		}
	}
	want := driverMetrics()
	if len(decl.EndToEnd) != len(want) {
		t.Fatalf("%d end-to-end metrics declared, harness reports %d", len(decl.EndToEnd), len(want))
	}
	for i, m := range want {
		if d := decl.EndToEnd[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.DriverBound {
			t.Errorf("end-to-end %d: declared %+v, harness %+v", i, d, m)
		}
		if !m.reportedOn(wBatch) || m.On != nil {
			t.Errorf("%s is declared to the driver but not reported on every workload", m.Name)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, harness reports %d", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if d := decl.PerLayer[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer %d: declared %+v, harness %+v", i, d, m)
		}
	}
}

// checkComplete verifies that got holds exactly the names of want, each
// once — the guard that a run reports every declared metric.
func checkComplete(got map[string]float64, want []metric) error {
	for _, m := range want {
		if _, ok := got[m.Name]; !ok {
			return fmt.Errorf("metric %s was not reported", m.Name)
		}
	}
	if len(got) != len(want) {
		declared := map[string]bool{}
		for _, m := range want {
			declared[m.Name] = true
		}
		for name := range got {
			if !declared[name] {
				return fmt.Errorf("metric %s is reported but not declared", name)
			}
		}
	}
	return nil
}
