package runner

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/predict"
	"lukewarm/internal/serverless"
	"lukewarm/internal/workload"
)

// testEngine builds an engine with the given worker count and no disk tier.
func testEngine(t *testing.T, jobs int) *Engine {
	t.Helper()
	e, err := New(Config{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// quickCells builds a small standard-cell batch spanning configurations.
func quickCells() []Cell {
	jb := core.DefaultConfig()
	var cells []Cell
	for _, w := range []string{"Auth-G", "Email-P"} {
		for _, c := range []Cell{
			{Workload: w, CPU: cpu.SkylakeConfig(), Mode: Lukewarm},
			{Workload: w, CPU: cpu.SkylakeConfig(), Jukebox: &jb, Mode: Lukewarm},
			{Workload: w, CPU: cpu.SkylakeConfig(), Mode: Reference},
		} {
			c.Warmup, c.Measure = 1, 1
			cells = append(cells, c)
		}
	}
	return cells
}

func TestMapOnOrderAndConcurrency(t *testing.T) {
	for _, jobs := range []int{1, 3, 8, 100} {
		e := testEngine(t, jobs)
		got, err := MapOn(e, 20, func(i int) string { return fmt.Sprint(i) },
			func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("jobs=%d: result[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

func TestMapOnLowestIndexError(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		e := testEngine(t, jobs)
		var ran atomic.Int64
		_, err := MapOn(e, 10, func(i int) string { return "u" },
			func(i int) (int, error) {
				ran.Add(1)
				if i == 7 || i == 3 {
					return 0, fmt.Errorf("unit %d failed", i)
				}
				return i, nil
			})
		if err == nil || !strings.Contains(err.Error(), "unit 3") {
			t.Errorf("jobs=%d: err = %v, want lowest-index unit 3", jobs, err)
		}
		if ran.Load() != 10 {
			t.Errorf("jobs=%d: ran %d units, want all 10 despite failures", jobs, ran.Load())
		}
	}
}

func TestMapOnEmpty(t *testing.T) {
	e := testEngine(t, 4)
	got, err := MapOn(e, 0, nil, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Errorf("MapOn(0) = %v, %v", got, err)
	}
}

func TestCellKey(t *testing.T) {
	base := Cell{Workload: "Auth-G", CPU: cpu.SkylakeConfig(), Mode: Lukewarm, Warmup: 1, Measure: 2}
	if base.Key() != base.Key() {
		t.Error("key not deterministic")
	}
	jb := core.DefaultConfig()
	jb2 := core.DefaultConfig()
	withJB := base
	withJB.Jukebox = &jb
	sameJB := base
	sameJB.Jukebox = &jb2
	if withJB.Key() != sameJB.Key() {
		t.Error("equal Jukebox configs behind distinct pointers must share a key")
	}
	withExec := base
	withExec.Exec = func(Cell) (Measurement, error) { return Measurement{}, nil }
	if withExec.Key() != base.Key() {
		t.Error("Exec must not enter the key")
	}
	mutants := []func(*Cell){
		func(c *Cell) { c.Workload = "Email-P" },
		func(c *Cell) { c.CPU = cpu.BroadwellConfig() },
		func(c *Cell) { c.Perfect = true },
		func(c *Cell) { c.Mode = Reference },
		func(c *Cell) { c.Warmup = 9 },
		func(c *Cell) { c.Measure = 9 },
		func(c *Cell) { c.Audit = true },
		func(c *Cell) { c.Variant = "custom" },
		func(c *Cell) { jb := core.DefaultConfig(); c.Jukebox = &jb },
		func(c *Cell) { jb := core.DefaultConfig(); jb.MetadataBytes *= 2; c.Jukebox = &jb },
	}
	seen := map[uint64]int{base.Key(): -1}
	for i, mutate := range mutants {
		c := base
		mutate(&c)
		if prev, dup := seen[c.Key()]; dup {
			t.Errorf("mutant %d collides with %d", i, prev)
		}
		seen[c.Key()] = i
	}
}

// TestExecuteRejectsVariantCells pins the one rule that ties a cell to its
// executor: Exec is set exactly when Variant is. The engine rejects either
// mismatch by label before it looks the cell up, so an Exec cell can never
// share a standard cell's key.
func TestExecuteRejectsVariantCells(t *testing.T) {
	exec := func(Cell) (Measurement, error) { return Measurement{}, nil }
	for _, c := range []Cell{
		{Workload: "Auth-G", CPU: cpu.SkylakeConfig(), Variant: "custom", Measure: 1},
		{Workload: "Auth-G", CPU: cpu.SkylakeConfig(), Exec: exec, Measure: 1},
	} {
		_, err := testEngine(t, 1).Measure([]Cell{c})
		if err == nil || !strings.Contains(err.Error(), c.Label()) {
			t.Errorf("Measure(%s) error = %v, want one naming the cell", c.Label(), err)
		}
	}
}

func TestMeasureDeterministicAcrossJobs(t *testing.T) {
	cells := quickCells()
	ref, err := testEngine(t, 1).Measure(cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{2, 8} {
		got, err := testEngine(t, jobs).Measure(cells)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("jobs=%d: measurements differ from jobs=1", jobs)
		}
	}
}

func TestMeasureMemoizes(t *testing.T) {
	e := testEngine(t, 4)
	cells := quickCells()
	first, err := e.Measure(cells)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Cells != uint64(len(cells)) || st.CacheHits != 0 {
		t.Fatalf("cold stats = %+v", st)
	}
	again, err := e.Measure(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("cached results differ from executed results")
	}
	st = e.Stats()
	if st.CacheHits != uint64(len(cells)) {
		t.Errorf("warm stats = %+v, want %d hits", st, len(cells))
	}
}

func TestMeasureRunsCellExecutors(t *testing.T) {
	e := testEngine(t, 4)
	var execs atomic.Int64
	exec := func(c Cell) (Measurement, error) {
		execs.Add(1)
		return Measurement{Instrs: uint64(len(c.Variant))}, nil
	}
	std := Cell{Workload: "Auth-G", CPU: cpu.SkylakeConfig(), Mode: Lukewarm, Warmup: 1, Measure: 1}
	want, err := Execute(std)
	if err != nil {
		t.Fatal(err)
	}
	cells := []Cell{
		std,
		{Workload: "Auth-G", Variant: "v1", Measure: 1, Exec: exec},
		{Workload: "Auth-G", Variant: "custom", Measure: 1, Exec: exec},
	}
	for round := 1; round <= 2; round++ {
		ms, err := e.Measure(cells)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ms[0], want) {
			t.Errorf("round %d: the standard cell did not run through Execute", round)
		}
		if ms[1].Instrs != 2 || ms[2].Instrs != 6 {
			t.Errorf("round %d: Exec cells measured %+v, %+v", round, ms[1], ms[2])
		}
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("Exec ran %d times, want 2 (the second batch is all cached)", n)
	}
	if st := e.Stats(); st.CacheHits != uint64(len(cells)) {
		t.Errorf("stats = %+v, want %d hits from the second batch", st, len(cells))
	}
}

// TestSharedProgramConcurrentWalks pins the library-wide determinism audit:
// programs are immutable after construction, so concurrent cells may walk
// one shared *Program (as the Scaling and ServerSim experiments do when they
// deploy the same suite into parallel traffic simulations). Run under -race,
// this fails loudly if anyone adds mutable walk state to Program.
func TestSharedProgramConcurrentWalks(t *testing.T) {
	w, err := workload.ByName("Auth-G")
	if err != nil {
		t.Fatal(err)
	}
	e := testEngine(t, 8)
	cpis, err := MapOn(e, 8, func(i int) string { return fmt.Sprintf("walk%d", i) },
		func(i int) (float64, error) {
			srv := serverless.New(serverless.Config{CPU: cpu.SkylakeConfig()})
			inst := srv.Deploy(w) // every unit shares w.Program
			return srv.RunLukewarm(inst, 2).CPI(), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cpis {
		if c != cpis[0] {
			t.Fatalf("walk %d CPI %v != walk 0 CPI %v: shared program walks are not deterministic", i, c, cpis[0])
		}
	}
}

func TestCacheDiskTier(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A populated traffic result: every field set, so a field gob cannot
	// carry (an unexported one, a Summary's internals) shows up below.
	tr := serverless.TrafficResult{
		Offered: 9, Served: 6, Shed: 2, Failed: 1, ColdStarts: 3, PrewarmHits: 1,
		PlacementMigrations: 4, JukeboxRebinds: 5, ResidentMs: 812.5,
		IdleMs: 900.25, TierColdMs: 60.5, TierResidentMs: 700.75, TierPrewarmedMs: 139,
		Prewarm: predict.Ledger{Scheduled: 4, Used: 2, Partial: 1, Wasted: 1, Expired: 1,
			ReplaySkips: 2, Judged: 5, AbsErrMsSum: 3.375, UsedReplayBytes: 8192,
			PartialReplayBytes: 2048, WastedReplayBytes: 4096, PrewarmBusyMs: 0.125},
		SyncReplays: 3, SyncReplayMs: 1.5,
		PerFunction: []serverless.FuncTraffic{
			{Name: "Auth-G", Served: 4, ColdStarts: 2, Shed: 1, CPISum: 5.75, PrewarmsUsed: 2, PredJudged: 3, PredAbsErrMsSum: 2.25},
			{Name: "Email-P", Served: 2, ColdStarts: 1, Shed: 1, Failed: 1, CPISum: 3.1, PrewarmsWasted: 1},
		},
		BusyFraction: 0.4375, SimulatedMs: 1234.5, P99LatencyCycles: 98765.25,
	}
	for i, v := range []float64{1.25, 0.7, 2.1, 1.05, 0.95, 3.3} {
		tr.CPI.Add(v)
		tr.ServiceCycles.Add(v * 1e5)
		tr.LatencyCycles.Add(v*1e5 + float64(i)*333)
	}
	ms := map[uint64]Measurement{
		42: {Instrs: 123, Cycles: 456, MetaBytes: 7},
		43: {Traffic: &tr},
	}
	for key, m := range ms {
		c1.Put(key, m)
	}

	// A fresh cache over the same directory must hit from disk.
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for key, m := range ms {
		got, ok := c2.Get(key)
		if !ok || !reflect.DeepEqual(got, m) {
			t.Fatalf("disk get %d = %+v, %v; want %+v", key, got, ok, m)
		}
	}
	if c2.Len() != len(ms) {
		t.Errorf("disk hits not promoted to memory: len = %d", c2.Len())
	}

	// Corrupt entries are misses and get removed.
	path := filepath.Join(dir, fmt.Sprintf("%016x.gob", uint64(99)))
	if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(99); ok {
		t.Error("corrupt entry reported as hit")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt entry not removed")
	}

	// Memory-only cache misses cleanly.
	c3, _ := NewCache("")
	if _, ok := c3.Get(42); ok {
		t.Error("memory-only cache hit a disk entry")
	}
}

func TestEngineDiskCacheAcrossProcessesSimulated(t *testing.T) {
	dir := t.TempDir()
	cells := quickCells()
	e1, err := New(Config{Jobs: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	first, err := e1.Measure(cells)
	if err != nil {
		t.Fatal(err)
	}
	// A second engine over the same directory stands in for a new process.
	e2, err := New(Config{Jobs: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	again, err := e2.Measure(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("disk-cached results differ")
	}
	if st := e2.Stats(); st.CacheHits != uint64(len(cells)) {
		t.Errorf("second engine stats = %+v, want all hits", st)
	}
}

func TestProgressLines(t *testing.T) {
	var buf bytes.Buffer
	e, err := New(Config{Jobs: 1, Progress: &buf})
	if err != nil {
		t.Fatal(err)
	}
	e.SetPhase("figX")
	if _, err := MapOn(e, 2, func(i int) string { return fmt.Sprintf("unit%d", i) },
		func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"[1/2] figX unit0", "[2/2] figX unit1"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output %q missing %q", out, want)
		}
	}
}

func TestDefaultEngine(t *testing.T) {
	e := Default()
	if e.Jobs() < 1 {
		t.Errorf("Jobs = %d", e.Jobs())
	}
}

func TestModeString(t *testing.T) {
	if Reference.String() != "ref" || Lukewarm.String() != "lukewarm" {
		t.Error("mode strings changed; cache schema may need a bump")
	}
}

func TestCellLabel(t *testing.T) {
	jb := core.DefaultConfig()
	for _, tc := range []struct {
		cell Cell
		want string
	}{
		{Cell{Workload: "W", Mode: Lukewarm}, "W/lukewarm"},
		{Cell{Workload: "W", Mode: Reference}, "W/ref"},
		{Cell{Workload: "W", Jukebox: &jb}, "W/jukebox"},
		{Cell{Workload: "W", Perfect: true}, "W/perfect"},
		{Cell{Workload: "W", Variant: "v", Jukebox: &jb}, "W/v"},
	} {
		if got := tc.cell.Label(); got != tc.want {
			t.Errorf("Label() = %q, want %q", got, tc.want)
		}
	}
}
