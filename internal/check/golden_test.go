package check

import (
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"lukewarm/internal/experiments"
	"lukewarm/internal/runner"
	"lukewarm/internal/stats"
)

// update rewrites the golden snapshots instead of comparing against them
// (package path before the flag, or go test hands the path to the wrong
// binary):
//
//	go test ./internal/check -run Golden -update
var update = flag.Bool("update", false, "rewrite golden snapshots in testdata/golden")

// goldenOpts is the canonical small configuration every experiment is
// snapshotted under: two functions, one warm-up, two measured invocations —
// big enough that every code path runs, small enough to stay test-speed.
func goldenOpts(eng *runner.Engine) experiments.Options {
	return experiments.Options{
		Warmup:    1,
		Measure:   2,
		Functions: []string{"Auth-G", "Email-P"},
		Engine:    eng,
		Seed:      42,
	}
}

// footprints is the one experiment snapshotted apart from the registry:
// its snapshots were taken at 5 traced invocations, where the fig6 entry
// traces the paper's 25.
func footprints(o experiments.Options) (experiments.Output, error) {
	r, err := experiments.Footprints(o, 5)
	return experiments.Output{Tables: []*stats.Table{r.Fig6aTable(), r.Fig6bTable()}}, err
}

// TestGoldenExperiments regenerates every registry entry's tables and holds
// them to the checked-in snapshots (or refreshes the snapshots with
// -update). One engine spans all experiments, as in the CLI, so shared cells
// are simulated once.
func TestGoldenExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regression runs every experiment; skipped in -short mode")
	}
	eng := runner.Default()
	seen := map[string]string{}
	for _, e := range experiments.All() {
		if e.Name == "fig6" {
			e.Name, e.Run = "footprints", footprints
		}
		t.Run(e.Name, func(t *testing.T) {
			out, err := e.Run(goldenOpts(eng))
			if err != nil {
				t.Fatalf("running %s: %v", e.Name, err)
			}
			if len(out.Tables) != len(e.Tables) {
				t.Fatalf("%s returned %d tables, declares %d", e.Name, len(out.Tables), len(e.Tables))
			}
			for _, tb := range out.Tables {
				path := filepath.Join("testdata", "golden", tb.Slug()+".json")
				if prev, dup := seen[path]; dup {
					t.Fatalf("table slug collision: %s and %s both map to %s", prev, e.Name, path)
				}
				seen[path] = e.Name
				if *update {
					g, err := Snapshot(tb)
					if err != nil {
						t.Fatal(err)
					}
					if err := WriteGolden(path, g); err != nil {
						t.Fatal(err)
					}
					continue
				}
				g, err := ReadGolden(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := g.Compare(tb); err != nil {
					t.Errorf("%s: %v\n(refresh with `go test ./internal/check -run Golden -update` if the change is intended)",
						filepath.Base(path), err)
				}
			}
		})
	}
}

// TestGoldenCompare unit-tests the comparison itself on synthetic tables,
// independent of the experiment snapshots: every cell must match exactly.
func TestGoldenCompare(t *testing.T) {
	mk := func(cpi string) *stats.Table {
		tb := stats.NewTable("Synthetic: compare", "func", "cpi", "speedup", "share")
		tb.AddRow("Auth-G", cpi, "1.53x", "12.3%")
		return tb
	}
	g, err := Snapshot(mk("2.00"))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Compare(mk("2.00")); err != nil {
		t.Fatalf("identical table rejected: %v", err)
	}
	if err := g.Compare(mk("2.01")); err == nil {
		t.Fatal("0.5% drift accepted")
	}
	bad := mk("2.00")
	bad.AddRow("Email-P", "1.00", "1.00x", "0.0%")
	if err := g.Compare(bad); err == nil {
		t.Fatal("extra row accepted")
	}
	if fmt.Sprint(g.Header) != "[func cpi speedup share]" {
		t.Fatalf("header round-trip: %v", g.Header)
	}
}
