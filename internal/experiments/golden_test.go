package experiments

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.golden from this run")

// fig17Timing matches the one column of the paper artefact that is a wall
// time: Fig. 17's per-stage average.
var fig17Timing = regexp.MustCompile(`avg_ms=\S+`)

// TestPaperGolden pins the paper artefact: every registered experiment, in
// the order of the paper, rendered as semitri-bench renders it at -scale 1
// with its default seed. Only Fig. 17's avg_ms values are masked (the
// command's "regenerated in" and "environment ready in" timings are not
// part of a table). A change to any annotation layer shows here as a diff;
// rerun with -update to accept it. The qualitative claims the tables'
// notes make are asserted beside the golden comparison.
func TestPaperGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the full-scale artefact is slow; skipped in -short mode")
	}
	env, err := NewEnv(DefaultSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	tables := map[string]*Table{}
	for _, id := range Order {
		tbl, err := Registry[id](env)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		tables[id] = tbl
		out := tbl.Format()
		if id == "fig17" {
			out = fig17Timing.ReplaceAllString(out, "avg_ms=*")
		}
		b.WriteString(out)
		b.WriteString("\n")
	}
	const golden = "testdata/paper.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("paper artefact differs from %s at line %d:\ngot  %q\nwant %q\n(rerun with -update to accept)", golden, i+1, g, w)
			}
		}
	}

	// Global map matching is at least as accurate as the nearest-segment
	// baseline at every noise level, and its lead grows with the noise.
	mm := tables["ablation-mapmatch"].Rows
	if len(mm) < 2 {
		t.Fatalf("ablation-mapmatch has %d rows", len(mm))
	}
	for _, r := range mm {
		if r.Values["global"] < r.Values["nearest"] {
			t.Errorf("%s: global matching %.4f below nearest %.4f", r.Label, r.Values["global"], r.Values["nearest"])
		}
	}
	if first, last := mm[0], mm[len(mm)-1]; last.Values["delta"] <= first.Values["delta"] {
		t.Errorf("global matching's lead %.4f at %s does not exceed its %.4f at %s",
			last.Values["delta"], last.Label, first.Values["delta"], first.Label)
	}
	// §5.2: the region-level representation compresses the GPS records.
	if c := tables["compression"].Rows[0].Values["compression"]; c < 0.96 {
		t.Errorf("compression %.4f, want at least 0.96", c)
	}
}
