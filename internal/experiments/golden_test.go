package experiments

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var updateSmoke = flag.Bool("update-smoke", false, "rewrite testdata/smoke.golden from this run")

// goldenCompare is the -compare half of the pin: a scheme, a pipeline, a
// vertex-renumbering scheme (no Quality) and a summarize stage.
var goldenCompare = []string{"uniform:p=0.5", "tr-eo:p=0.8|spanner:k=8", "tr-collapse:p=0.5", "summarize:eps=0.2"}

// TestSmokeGolden replays `slimbench -scale 0 -seed 1 -workers 1` followed by
// a -compare run against testdata/smoke.golden with every Timing cell masked.
// The file was first captured from the 18 hand-written drivers this package
// replaced (CHANGES.md, PR 21, lists the cells that moved on purpose since),
// so a diff here means an artifact's numbers or layout changed. Regenerate
// with -update-smoke only when the issue says they may.
func TestSmokeGolden(t *testing.T) {
	cfg := Config{Scale: 0, Seed: 1, Workers: 1, maskTimings: true}
	var got bytes.Buffer
	for _, a := range append(append([]Artifact{}, Artifacts...), Compare(goldenCompare)) {
		tab, err := a.Table(cfg)
		if err != nil {
			t.Fatalf("%s: %v", a.Key, err)
		}
		tab.Fprint(&got)
	}
	const path = "testdata/smoke.golden"
	if *updateSmoke {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("line %d differs from %s:\n got %q\nwant %q", i+1, path, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("%d lines, %s has %d", len(gotLines), path, len(wantLines))
	}
}
