package runner

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"lukewarm/internal/cfgerr"
	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/faults"
	"lukewarm/internal/mem"
	"lukewarm/internal/reap"
	"lukewarm/internal/serverless"
	"lukewarm/internal/stats"
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

// unitCells builds n Exec cells, unit i labelled "u<i>" and run by exec.
func unitCells(n int, exec func(i int) (Measurement, error)) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{Workload: "u", Variant: fmt.Sprint(i), Measure: 1,
			Exec: func(Cell) (Measurement, error) { return exec(i) }}
	}
	return cells
}

func TestMeasureOrderAndConcurrency(t *testing.T) {
	for _, jobs := range []int{1, 3, 8, 100} {
		e := testEngine(t, jobs)
		got, err := e.Measure(unitCells(20, func(i int) (Measurement, error) {
			return Measurement{Instrs: uint64(i * i)}, nil
		}))
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if len(got) != 20 {
			t.Fatalf("jobs=%d: %d results, want 20", jobs, len(got))
		}
		for i, m := range got {
			if m.Instrs != uint64(i*i) {
				t.Fatalf("jobs=%d: result[%d] = %d, want %d", jobs, i, m.Instrs, i*i)
			}
		}
	}
}

func TestMeasureLowestIndexError(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		e := testEngine(t, jobs)
		var ran atomic.Int64
		_, err := e.Measure(unitCells(10, func(i int) (Measurement, error) {
			ran.Add(1)
			if i == 7 || i == 3 {
				return Measurement{}, fmt.Errorf("unit %d failed", i)
			}
			return Measurement{Instrs: uint64(i)}, nil
		}))
		if err == nil || !strings.Contains(err.Error(), "unit 3") {
			t.Errorf("jobs=%d: err = %v, want lowest-index unit 3", jobs, err)
		}
		if ran.Load() != 10 {
			t.Errorf("jobs=%d: ran %d units, want all 10 despite failures", jobs, ran.Load())
		}
	}
}

func TestMeasureEmpty(t *testing.T) {
	e := testEngine(t, 4)
	got, err := e.Measure(nil)
	if err != nil || got != nil {
		t.Errorf("Measure(nil) = %v, %v", got, err)
	}
	if st := e.Stats(); st.Cells != 0 {
		t.Errorf("empty batch counted %d cells", st.Cells)
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
	sameWarm := base
	lw := Lukewarm
	sameWarm.WarmupMode = &lw
	if sameWarm.Key() != base.Key() {
		t.Error("a WarmupMode equal to Mode must key like nil")
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
		func(c *Cell) { c.Mode = Cold },
		func(c *Cell) { c.Mode = Idle },
		func(c *Cell) { c.Mode, c.IdleMs = Idle, 8 },
		func(c *Cell) { ref := Reference; c.WarmupMode = &ref },
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

// TestStartConditionsMatchHandRolled pins each start condition that
// replaced a hand-written invocation sequence to that sequence, bit for bit:
// a cold or idle window after a lukewarm warm-up (the cold-start
// comparator, audited, whole Measurement), a reference window after a
// lukewarm warm-up (the pre-warm experiment's warm reference), and an idle
// window after a reference warm-up (Fig. 1, IAT 0 included). The last two
// sequences reported only Instrs and Cycles, which is what they are held
// to.
func TestStartConditionsMatchHandRolled(t *testing.T) {
	lw, ref := Lukewarm, Reference
	jb, rc := core.DefaultConfig(), reap.DefaultConfig()
	deploy := func(c Cell) (*serverless.Server, *serverless.Instance) {
		w, err := workload.ByName(c.Workload)
		if err != nil {
			t.Fatal(err)
		}
		srv := serverless.New(serverless.Config{CPU: c.CPU, Jukebox: c.Jukebox, Reap: c.Reap})
		t.Cleanup(srv.Release)
		return srv, srv.Deploy(w)
	}
	// coldstart is the cold-start comparator's former loop.
	coldstart := func(c Cell) Measurement {
		srv, inst := deploy(c)
		srv.RunLukewarm(inst, c.Warmup)
		beginWindow(srv, inst)
		var out Measurement
		for i := 0; i < c.Measure; i++ {
			if c.Mode == Cold {
				inst.Evict()
				srv.FlushMicroarch()
			} else {
				srv.AdvanceIAT(c.IdleMs)
			}
			res := srv.Invoke(inst)
			if err := faults.Audit(res); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				out.FirstInvCycles = res.Cycles
			}
			out.Stack.Merge(res.Stack)
			out.Instrs += res.Instrs
			out.Cycles += res.Cycles
		}
		if err := endWindow(srv, inst, &out, true, c.Mode == Cold); err != nil {
			t.Fatal(err)
		}
		return out
	}
	// prewarmWarm is the pre-warm experiment's former warm reference.
	prewarmWarm := func(c Cell) Measurement {
		srv, inst := deploy(c)
		srv.RunLukewarm(inst, c.Warmup)
		var out Measurement
		for i := 0; i < c.Measure; i++ {
			res := srv.Invoke(inst)
			out.Instrs += res.Instrs
			out.Cycles += res.Cycles
		}
		return out
	}
	// fig1 is Fig. 1's former point, whose warm-up ran one invocation more
	// than its cell's count.
	fig1 := func(c Cell) Measurement {
		srv, inst := deploy(c)
		srv.RunReference(inst, c.Warmup)
		var out Measurement
		for k := 0; k < c.Measure; k++ {
			r := srv.RunWithIAT(inst, 1, c.IdleMs)
			out.Instrs += r.Instrs
			out.Cycles += r.Cycles
		}
		return out
	}
	instrsCycles := func(m Measurement) Measurement { return Measurement{Instrs: m.Instrs, Cycles: m.Cycles} }
	base := Cell{Workload: "Auth-G", CPU: cpu.SkylakeConfig(), Warmup: 2, Measure: 2, Audit: true, WarmupMode: &lw}
	fig1Cell := func(c *Cell, iatMs float64) {
		c.Mode, c.IdleMs, c.WarmupMode, c.CPU = Idle, iatMs, &ref, cpu.CharacterizationConfig()
	}
	for _, tc := range []struct {
		name string
		set  func(*Cell)
		old  func(Cell) Measurement
		view func(Measurement) Measurement
	}{
		{"cold", func(c *Cell) { c.Mode = Cold }, coldstart, nil},
		{"cold-mechanisms", func(c *Cell) { c.Mode, c.Jukebox, c.Reap = Cold, &jb, &rc }, coldstart, nil},
		{"idle-0ms", func(c *Cell) { c.Mode = Idle }, coldstart, nil},
		{"idle-64ms-mechanisms", func(c *Cell) { c.Mode, c.IdleMs, c.Jukebox, c.Reap = Idle, 64, &jb, &rc }, coldstart, nil},
		{"lukewarm-warmup-ref-window", func(c *Cell) { c.Mode = Reference }, prewarmWarm, instrsCycles},
		{"ref-warmup-idle-0ms", func(c *Cell) { fig1Cell(c, 0) }, fig1, instrsCycles},
		{"ref-warmup-idle-10ms", func(c *Cell) { fig1Cell(c, 10) }, fig1, instrsCycles},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := base
			tc.set(&c)
			got, err := testEngine(t, 1).Measure([]Cell{c})
			if err != nil {
				t.Fatal(err)
			}
			want := tc.old(c)
			if tc.view != nil {
				got[0] = tc.view(got[0])
			}
			if !reflect.DeepEqual(got[0], want) {
				t.Errorf("%s differs from the hand-rolled sequence:\n got %+v\nwant %+v", c.Label(), got[0], want)
			}
		})
	}
}

// TestMeasureRejectsStrayIdleMs pins that an idle gap has exactly one
// reader: Engine.Measure rejects an IdleMs on a cell with no Idle start
// condition, and a gap that is negative or not finite, as configuration
// errors; it runs one on an Idle window or an Idle warm-up.
func TestMeasureRejectsStrayIdleMs(t *testing.T) {
	ran := 0
	exec := func(Cell) (Measurement, error) { ran++; return Measurement{}, nil }
	idle := Idle
	for _, tc := range []struct {
		cell Cell
		ok   bool
	}{
		{Cell{Mode: Lukewarm, IdleMs: 8}, false},
		{Cell{Mode: Reference, IdleMs: 8}, false},
		{Cell{Mode: Cold, IdleMs: 8}, false},
		{Cell{Mode: Idle, IdleMs: -1}, false},
		{Cell{Mode: Idle, IdleMs: math.Inf(1)}, false},
		{Cell{Mode: Idle, IdleMs: math.NaN()}, false},
		{Cell{Mode: Idle + 1}, false},
		{Cell{Mode: Idle, IdleMs: 8}, true},
		{Cell{Mode: Lukewarm, WarmupMode: &idle, IdleMs: 8}, true},
	} {
		c := tc.cell
		c.Workload, c.Variant, c.Exec, c.Measure = "u", "v", exec, 1
		before := ran
		_, err := testEngine(t, 1).Measure([]Cell{c})
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v, want it run", c.Label(), err)
		case !tc.ok && !errors.Is(err, cfgerr.ErrBadConfig):
			t.Errorf("%s: err = %v, want ErrBadConfig", c.Label(), err)
		case !tc.ok && ran != before:
			t.Errorf("%s: a rejected cell ran", c.Label())
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

// TestMeasureRecyclesServers runs standard cells on four workers, each
// building a server and releasing its caches for the next, and compares
// them with the same cells measured on servers that are never released.
// Under -race it checks that workers share the free list safely.
func TestMeasureRecyclesServers(t *testing.T) {
	cells := quickCells()[:4]
	want := make([]Measurement, len(cells))
	for i, c := range cells {
		w, err := workload.ByName(c.Workload)
		if err != nil {
			t.Fatal(err)
		}
		srv := serverless.New(serverless.Config{CPU: c.CPU, Jukebox: c.Jukebox})
		if want[i], err = MeasureInstance(srv, srv.Deploy(w), c); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		got, err := testEngine(t, 4).Measure(cells)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cells {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("round %d: %s on a recycled server differs from a new one", round, cells[i].Label())
			}
		}
	}
	if n, _ := mem.Retained(); n == 0 {
		t.Error("no cell released its server's caches")
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
	ms, err := e.Measure(unitCells(8, func(int) (Measurement, error) {
		srv := serverless.New(serverless.Config{CPU: cpu.SkylakeConfig()})
		inst := srv.Deploy(w) // every unit shares w.Program
		r := srv.RunLukewarm(inst, 2)
		return Measurement{Instrs: r.Instrs, Cycles: r.Cycles}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.CacheHits != 0 {
		t.Fatalf("stats = %+v: every walk must run, none may hit", st)
	}
	for i, m := range ms {
		if m.CPI() != ms[0].CPI() {
			t.Fatalf("walk %d CPI %v != walk 0 CPI %v: shared program walks are not deterministic", i, m.CPI(), ms[0].CPI())
		}
	}
}

// fillAll sets every exported field reachable from v, which must be
// settable, to a distinct nonzero value: n numbers the values. A
// stats.Summary gets a few samples through Add. A kind it cannot fill
// (an interface, a func) fails the test, so a new Measurement field that gob
// might not carry cannot slip past TestCacheDiskTier.
func fillAll(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillAll(t, v.Index(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillAll(t, v.Index(i), n)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fillAll(t, k, n)
			fillAll(t, e, n)
			v.SetMapIndex(k, e)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillAll(t, v.Elem(), n)
	case reflect.Struct:
		if s, ok := v.Addr().Interface().(*stats.Summary); ok {
			for _, x := range []float64{1.25, -0.5, float64(*n)} {
				s.Add(x)
			}
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillAll(t, v.Field(i), n)
			}
		}
	default:
		t.Fatalf("fillAll: cannot fill a %s", v.Type())
	}
}

func TestCacheDiskTier(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A fully populated Measurement: every field down to the traffic and
	// fleet results is set, so a field gob cannot carry (an unexported one,
	// a Summary's internals) shows up below.
	var full Measurement
	n := 0
	fillAll(t, reflect.ValueOf(&full).Elem(), &n)
	ms := map[uint64]Measurement{
		42: {Instrs: 123, Cycles: 456, MetaBytes: 7},
		43: full,
	}
	for key, m := range ms {
		if err := c1.Put(key, m); err != nil {
			t.Fatal(err)
		}
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
	// Disk hits are promoted to memory: they survive the disk tier's loss.
	for key := range ms {
		if err := os.Remove(c2.path(key)); err != nil {
			t.Fatal(err)
		}
		if _, ok := c2.Get(key); !ok {
			t.Errorf("disk hit %d not promoted to memory", key)
		}
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

// TestCacheEncodeFailureReachesCaller: a result the disk tier cannot encode
// fails its cell with an error naming the cell, instead of silently
// degrading the disk tier to memory-only. The failed result is cached
// nowhere, so the next batch runs the cell again.
func TestCacheEncodeFailureReachesCaller(t *testing.T) {
	errEncode := errors.New("cannot encode")
	saved := encode
	encode = func(io.Writer, Measurement) error { return errEncode }
	t.Cleanup(func() { encode = saved })

	dir := t.TempDir()
	e, err := New(Config{Jobs: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	cells := unitCells(3, func(i int) (Measurement, error) {
		execs.Add(1)
		return Measurement{Instrs: uint64(i)}, nil
	})
	for round := 1; round <= 2; round++ {
		_, err := e.Measure(cells)
		if !errors.Is(err, errEncode) || !strings.Contains(err.Error(), cells[0].Label()) {
			t.Errorf("round %d: err = %v, want the encode error naming %s", round, err, cells[0].Label())
		}
	}
	if n := execs.Load(); n != 6 {
		t.Errorf("cells ran %d times over two batches, want 6: a failed result must not be cached", n)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("disk tier holds %d entries after encode failures, want 0", len(entries))
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
	cells := unitCells(2, func(int) (Measurement, error) { return Measurement{}, nil })
	for round := 0; round < 2; round++ {
		if _, err := e.Measure(cells); err != nil {
			t.Fatal(err)
		}
	}
	// One line per cell and batch: "[done/total] phase label wall", with a
	// " (cached)" suffix on hits (the second batch).
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	want := []string{"[1/2] figX u/0/ref ", "[2/2] figX u/1/ref ", "[1/2] figX u/0/ref ", "[2/2] figX u/1/ref "}
	if len(lines) != len(want) {
		t.Fatalf("progress output %q: %d lines, want %d", buf.String(), len(lines), len(want))
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, want[i]) || strings.HasSuffix(line, " (cached)") != (i >= 2) {
			t.Errorf("progress line %d = %q, want prefix %q, cached=%t", i, line, want[i], i >= 2)
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
	if Reference.String() != "ref" || Lukewarm.String() != "lukewarm" || Cold.String() != "cold" || Idle.String() != "idle" {
		t.Error("mode strings changed; cache schema may need a bump")
	}
}

func TestCellLabel(t *testing.T) {
	jb := core.DefaultConfig()
	lw := Lukewarm
	ref := Reference
	for _, tc := range []struct {
		cell Cell
		want string
	}{
		{Cell{Workload: "W", Mode: Lukewarm}, "W/lukewarm"},
		{Cell{Workload: "W", Mode: Reference}, "W/ref"},
		{Cell{Workload: "W", Jukebox: &jb, Mode: Lukewarm}, "W/jukebox"},
		{Cell{Workload: "W", Perfect: true, Mode: Lukewarm}, "W/perfect"},
		{Cell{Workload: "W", Variant: "v", Jukebox: &jb, Mode: Lukewarm}, "W/v"},
		// A start condition other than lukewarm is named.
		{Cell{Workload: "W", Jukebox: &jb, Mode: Reference}, "W/jukebox/ref"},
		{Cell{Workload: "W", Mode: Cold, WarmupMode: &lw}, "W/lukewarm>cold"},
		{Cell{Workload: "W", Jukebox: &jb, Mode: Idle, IdleMs: 8, WarmupMode: &lw}, "W/jukebox/lukewarm>idle=8ms"},
		{Cell{Workload: "W", Mode: Idle, WarmupMode: &ref}, "W/ref>idle=0ms"},
		{Cell{Workload: "W", Variant: "v", Mode: Lukewarm, WarmupMode: &ref}, "W/v/ref>lukewarm"},
		{Cell{Workload: "W", Mode: Lukewarm, WarmupMode: &lw}, "W/lukewarm"},
	} {
		if got := tc.cell.Label(); got != tc.want {
			t.Errorf("Label() = %q, want %q", got, tc.want)
		}
	}
}
