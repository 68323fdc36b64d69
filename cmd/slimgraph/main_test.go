package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slimgraph"
)

// runCLI runs the CLI with captured output.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUsageGrammar pins the spec grammar documented by -h. The text is
// duplicated here on purpose: editing the grammar should fail this test
// until the docs and the parser agree.
func TestUsageGrammar(t *testing.T) {
	code, _, stderr := runCLI("-h")
	if code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	const grammar = `Scheme specs (the -scheme argument) follow the registry grammar:

  spec   := stage ("|" stage)*          stages chain into a pipeline
  stage  := name [":" params]
  params := key "=" value ("," key "=" value)*
`
	if !strings.Contains(stderr, grammar) {
		t.Errorf("usage lost the spec grammar block; got:\n%s", stderr)
	}
	// Every registered scheme is listed with its About line and, from its
	// parameter table, every key with its default.
	for _, name := range slimgraph.SchemeNames() {
		info, _ := slimgraph.LookupScheme(name)
		if !strings.Contains(stderr, info.About) {
			t.Errorf("usage does not document scheme %q (%s)", name, info.About)
		}
		for _, p := range info.Params {
			if !strings.Contains(stderr, p.Key+"="+p.Default) {
				t.Errorf("usage of %q does not show %s=%s", name, p.Key, p.Default)
			}
		}
	}
	if want := "spanner          O(k)-spanner via low-diameter decomposition (k=8, mode=pervertex|perpair)\n"; !strings.Contains(stderr, want) {
		t.Errorf("usage lost the rendered spanner line %q; got:\n%s", want, stderr)
	}
}

// TestInapplicableFlagErrors pins the exact error messages for shorthand
// flags a scheme does not accept — the intentional PR 1 behavior change
// from silently ignoring them.
func TestInapplicableFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // exact stderr
	}{
		{
			name: "lowdeg rejects -p",
			args: []string{"-gen", "grid", "-n", "16", "-scheme", "lowdeg", "-p", "0.3", "-metrics=false"},
			want: "slimgraph: schemes: lowdeg does not accept option \"p\" (accepted: seed,workers)\n",
		},
		{
			name: "spanner rejects -p",
			args: []string{"-gen", "grid", "-n", "16", "-scheme", "spanner", "-p", "0.4", "-metrics=false"},
			want: "slimgraph: schemes: spanner does not accept option \"p\" (accepted: k,mode,seed,workers)\n",
		},
		{
			name: "uniform rejects -k",
			args: []string{"-gen", "grid", "-n", "16", "-scheme", "uniform", "-k", "4", "-metrics=false"},
			want: "slimgraph: schemes: uniform does not accept option \"k\" (accepted: p,seed,workers)\n",
		},
		{
			name: "bad format fails before the run",
			args: []string{"-format", "bogus"},
			want: "slimgraph: unknown -format \"bogus\" (want edgelist, binary, or packed)\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(tc.args...)
			if code != 1 {
				t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr)
			}
			if stderr != tc.want {
				t.Errorf("stderr = %q, want %q", stderr, tc.want)
			}
		})
	}
}

// TestUnknownSchemeListsRegistry checks the unknown-scheme error names the
// registry contents.
func TestUnknownSchemeListsRegistry(t *testing.T) {
	code, _, stderr := runCLI("-gen", "grid", "-n", "16", "-scheme", "nope", "-metrics=false")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, `unknown scheme "nope"`) ||
		!strings.Contains(stderr, "uniform") || !strings.Contains(stderr, "tr-eo") {
		t.Errorf("unknown-scheme error should list the registry: %q", stderr)
	}
}

// TestSpecPinning pins the spec-driven output lines: shorthand merging onto
// bare names, explicit specs winning over shorthand, and pipeline stage
// reporting.
func TestSpecPinning(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string // substrings of stdout, in order of appearance
	}{
		{
			name: "shorthand merges onto a bare scheme name",
			args: []string{"-gen", "grid", "-n", "9", "-scheme", "uniform", "-p", "0.25", "-metrics=false"},
			want: []string{"input: undirected graph: n=9 m=12", "uniform(p=0.25): m 12 -> "},
		},
		{
			name: "explicit spec parameters beat shorthand",
			args: []string{"-gen", "grid", "-n", "9", "-scheme", "uniform:p=0.9", "-p", "0.1", "-metrics=false"},
			want: []string{"uniform(p=0.9): m 12 -> "},
		},
		{
			name: "pipelines report stages and the joined canonical spec",
			args: []string{"-gen", "grid", "-n", "9", "-scheme", "tr:p=0|spanner:k=2", "-metrics=false"},
			want: []string{
				"  stage tr(p=0): m 12 -> 12",
				"  stage spanner(k=2,mode=pervertex): m 12 -> ",
				"pipeline(tr:p=0|spanner:k=2,mode=pervertex): m 12 -> ",
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(tc.args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr)
			}
			rest := stdout
			for _, want := range tc.want {
				i := strings.Index(rest, want)
				if i < 0 {
					t.Fatalf("stdout missing %q (in order); full output:\n%s", want, stdout)
				}
				rest = rest[i+len(want):]
			}
		})
	}
}

// TestFormatRoundTrips writes the compressed graph in every -format and
// reads each file back, requiring graph equality with the same compression
// done offline through the library.
func TestFormatRoundTrips(t *testing.T) {
	g := slimgraph.GenerateErdosRenyi(200, 400, 3)
	sch, err := slimgraph.ParseScheme("uniform:p=0.5",
		slimgraph.WithSeed(3), slimgraph.WithWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sch.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Output

	dir := t.TempDir()
	for _, format := range []string{"edgelist", "binary", "packed"} {
		t.Run(format, func(t *testing.T) {
			path := filepath.Join(dir, "out."+format)
			code, stdout, stderr := runCLI(
				"-gen", "er", "-n", "200", "-ef", "2", "-seed", "3",
				"-scheme", "uniform", "-p", "0.5", "-metrics=false",
				"-out", path, "-format", format)
			if code != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr)
			}
			if !strings.Contains(stdout, "wrote "+path+" ("+format+", ") {
				t.Errorf("missing write report in stdout:\n%s", stdout)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			got, err := slimgraph.ReadGraph(f, false)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("%s round trip diverged from the offline library run: got %v, want %v",
					format, got, want)
			}
		})
	}
}

// TestSnapshotInputSniffing feeds run a packed snapshot through -input and
// checks it loads by magic, not by extension.
func TestSnapshotInputSniffing(t *testing.T) {
	g := slimgraph.GenerateErdosRenyi(100, 200, 1)
	path := filepath.Join(t.TempDir(), "snap.whatever")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slimgraph.WritePacked(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	code, stdout, stderr := runCLI("-input", path, "-scheme", "lowdeg", "-metrics=false")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "input: "+g.String()) {
		t.Errorf("snapshot input not recognized (want %q):\n%s", g.String(), stdout)
	}
}

// TestRelabelShrinksScrambledBand: a packed file keeps the vertex IDs it is
// given, so a locality order is a relabel stage of the scheme. On a band
// graph whose IDs were scrambled, -scheme relabel:order=bfs writes a smaller
// packed file than the graph in its own IDs, and every -format packed run
// reports the gap encoding of what it wrote.
func TestRelabelShrinksScrambledBand(t *testing.T) {
	dir := t.TempDir()
	const n, band = 20000, 8
	id := rand.New(rand.NewSource(1)).Perm(n)
	var scrambled strings.Builder
	for v := 0; v < n; v++ {
		for d := 1; d <= band && v+d < n; d++ {
			fmt.Fprintf(&scrambled, "%d %d\n", id[v], id[v+d])
		}
	}
	input := filepath.Join(dir, "band.el")
	if err := os.WriteFile(input, []byte(scrambled.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	size := func(scheme string) int64 {
		t.Helper()
		path := filepath.Join(dir, "out.sgp")
		code, stdout, stderr := runCLI("-input", input, "-scheme", scheme, "-metrics=false", "-format", "packed", "-out", path)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", scheme, code, stderr)
		}
		if !strings.Contains(stdout, "-- packed encoding --\n  payload ") {
			t.Errorf("%s: no gap-encoding report:\n%s", scheme, stdout)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	if own, bfs := size("uniform:p=1"), size("relabel:order=bfs"); bfs >= own {
		t.Errorf("relabel:order=bfs wrote %d bytes, the scrambled IDs %d: the relabel did not pay", bfs, own)
	}
}
