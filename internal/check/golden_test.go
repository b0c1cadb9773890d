package check

import (
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
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
	}
}

// goldenCase is one experiment of the regression harness.
type goldenCase struct {
	name   string
	tables func(opt experiments.Options) ([]*stats.Table, error)
}

func one(t *stats.Table, err error) ([]*stats.Table, error) { return []*stats.Table{t}, err }

// goldenCases enumerates every experiment's canonical tables.
func goldenCases() []goldenCase {
	return []goldenCase{
		{"fig1", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.Fig1(o)
			return one(r.Table(), err)
		}},
		{"characterization", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.Characterize(o)
			return []*stats.Table{r.Fig2Table(), r.Fig3Table(), r.Fig4Table(),
				r.Fig5aTable(), r.Fig5bTable()}, err
		}},
		{"footprints", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.Footprints(o, 5)
			return []*stats.Table{r.Fig6aTable(), r.Fig6bTable()}, err
		}},
		{"fig8", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.Fig8(o, 16)
			return one(r.Table(), err)
		}},
		{"fig9", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.Fig9(o)
			return one(r.Table(), err)
		}},
		{"performance", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.Performance(o, cpu.SkylakeConfig(), core.DefaultConfig())
			return []*stats.Table{r.Fig10Table(), r.Fig11Table(), r.Fig12Table()}, err
		}},
		{"fig13", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.Fig13(o)
			return one(r.Table(), err)
		}},
		{"table3", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.Table3(o)
			return one(r.Table(), err)
		}},
		{"crrb-ablation", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.CRRBAblation(o)
			return one(r.Table(), err)
		}},
		{"compaction", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.Compaction(o)
			return one(r.Table(), err)
		}},
		{"snapshot", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.Snapshot(o)
			return one(r.Table(), err)
		}},
		{"dynamic-metadata", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.DynamicMetadata(o)
			return one(r.Table(), err)
		}},
		{"baselines", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.Baselines(o)
			return one(r.Table(), err)
		}},
		{"server-sim", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.ServerSim(o)
			return one(r.Table(), err)
		}},
		{"scaling", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.Scaling(o)
			return one(r.Table(), err)
		}},
		{"sched", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.Sched(o)
			return []*stats.Table{r.Table(), r.KeepAliveTable(), r.PerFuncTable()}, err
		}},
		{"chaos", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.Chaos(o, 42)
			return one(r.Table(), err)
		}},
		{"cluster", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.Cluster(o)
			return []*stats.Table{r.Table(), r.LatencyTable()}, err
		}},
		{"coldstart", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.Coldstart(o)
			return []*stats.Table{r.Table(), r.CrossoverTable(), r.StalenessTable()}, err
		}},
		{"prewarm", func(o experiments.Options) ([]*stats.Table, error) {
			r, err := experiments.Prewarm(o)
			return one(r.Table(), err)
		}},
	}
}

// TestGoldenExperiments regenerates every experiment's canonical tables and
// holds them to the checked-in snapshots (or refreshes the snapshots with
// -update). One engine spans all experiments, as in the CLI, so shared cells
// are simulated once.
func TestGoldenExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regression runs every experiment; skipped in -short mode")
	}
	eng := runner.Default()
	seen := map[string]string{}
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			tables, err := gc.tables(goldenOpts(eng))
			if err != nil {
				t.Fatalf("running %s: %v", gc.name, err)
			}
			for _, tb := range tables {
				path := filepath.Join("testdata", "golden", tb.Slug()+".json")
				if prev, dup := seen[path]; dup {
					t.Fatalf("table slug collision: %s and %s both map to %s", prev, gc.name, path)
				}
				seen[path] = gc.name
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
