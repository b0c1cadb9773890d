// Command lukewarm regenerates the paper's figures and tables from the
// simulator. Each subcommand names one figure or table of the experiment
// registry (internal/experiments; DESIGN.md has the index), and `all` runs
// every entry in paper order. Run it with no arguments for the generated
// list.
//
// Usage:
//
//	lukewarm [-measure N] [-warmup N] [-funcs Auth-G,Email-P] [-jobs N] <experiment>
//
// The -csv flag mirrors every table into machine-readable CSV files; -audit
// cross-checks every measured invocation against the simulator's
// conservation invariants. The extra `check` subcommand runs the
// differential-oracle and metamorphic-property validation battery
// (internal/check) instead of an experiment.
//
// Every experiment's measurements run as independent simulation cells on a
// worker pool (-jobs, default GOMAXPROCS) with a content-addressed result
// cache; tables are byte-identical for any -jobs value. -cache DIR persists
// the cache across runs, -progress streams per-cell progress to stderr, and
// -report FILE writes a JSON run report with per-experiment wall time, cell
// counts, cache hit rates and headline metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"lukewarm"
)

func main() {
	measure := flag.Int("measure", 0, "measured invocations per configuration (0 = default)")
	warmup := flag.Int("warmup", 0, "warm-up invocations per configuration (0 = default, negative = none)")
	funcs := flag.String("funcs", "", "comma-separated function subset (default: all 20)")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	audit := flag.Bool("audit", false, "check conservation invariants on every measured invocation")
	seed := flag.Uint64("seed", 42, "fault-injection seed for the chaos experiment")
	jobs := flag.Int("jobs", 0, "simulation cells run concurrently (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache", "", "persist the content-addressed result cache in this directory")
	progress := flag.Bool("progress", false, "stream per-cell progress lines to stderr")
	reportPath := flag.String("report", "", "write a JSON run report (wall time, cells, cache hits, headline metrics) to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lukewarm:", err)
		os.Exit(1)
	}
	// exit flushes the profiles before terminating: every exit path below
	// this point must use it, or a profiled failing run writes no profile.
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}
	engCfg := lukewarm.EngineConfig{Jobs: *jobs, CacheDir: *cacheDir}
	if *progress {
		engCfg.Progress = os.Stderr
	}
	eng, err := lukewarm.NewEngine(engCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lukewarm:", err)
		exit(1)
	}
	opt := lukewarm.ExperimentOptions{
		Measure: *measure, Warmup: *warmup, Audit: *audit, Engine: eng, Seed: *seed,
	}
	if *funcs != "" {
		opt.Functions = strings.Split(*funcs, ",")
	}
	s := &session{
		p:   printer{csvDir: *csvDir},
		opt: opt,
		eng: eng,
		rep: &runReport{Jobs: eng.Jobs(), CacheDir: *cacheDir, Headline: map[string]float64{}},
	}

	name := flag.Arg(0)
	start := time.Now()
	runErr := s.run(name)
	s.finish(time.Since(start))
	if *reportPath != "" {
		if err := s.writeReport(*reportPath); err != nil {
			fmt.Fprintln(os.Stderr, "lukewarm: report:", err)
			exit(1)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "lukewarm:", runErr)
		exit(1)
	}
	stopProfiles()
	fmt.Printf("(%s completed in %s)\n", name, time.Since(start).Round(time.Millisecond))
}

// startProfiles begins CPU profiling and arranges the exit-time heap
// profile. The returned stop function is idempotent and must run on every
// exit path once profiling has started; either path may be empty.
func startProfiles(cpuPath, memPath string) (func(), error) {
	stopCPU := func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		stopCPU()
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lukewarm: memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize final live-heap state
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "lukewarm: memprofile:", err)
		}
	}, nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `lukewarm - regenerate the figures and tables of
"Lukewarm Serverless Functions: Characterization and Optimization" (ISCA'22)

usage: lukewarm [flags] <experiment>

experiments:
`)
	line := func(names, desc string) { fmt.Fprintf(os.Stderr, "  %-30s  %s\n", names, desc) }
	for _, e := range lukewarm.Experiments() {
		var names []string
		for _, t := range e.Tables {
			if t != "" {
				names = append(names, t)
			}
		}
		line(strings.Join(names, ", "), e.Usage)
	}
	line("check", "differential-oracle + metamorphic-property validation battery")
	line("all", "every experiment above, in paper order")
	fmt.Fprintf(os.Stderr, "\nflags:\n")
	flag.PrintDefaults()
}

// printer renders tables to stdout and, when csvDir is set, mirrors each
// one into <csvDir>/<slug>.csv.
type printer struct {
	csvDir string
}

func (p printer) show(t *lukewarm.Table) error {
	fmt.Println(t)
	if p.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(p.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(p.csvDir, t.Slug()+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}

// reportEntry is one experiment's telemetry in the run report.
type reportEntry struct {
	Experiment   string  `json:"experiment"`
	WallMs       float64 `json:"wall_ms"`
	Cells        uint64  `json:"cells"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// runReport is the -report JSON document.
type runReport struct {
	Jobs        int           `json:"jobs"`
	CacheDir    string        `json:"cache_dir,omitempty"`
	Experiments []reportEntry `json:"experiments"`
	TotalWallMs float64       `json:"total_wall_ms"`
	// CellWallMs sums per-cell wall time across workers; it exceeds
	// TotalWallMs when cells ran concurrently.
	CellWallMs     float64            `json:"cell_wall_ms"`
	TotalCells     uint64             `json:"total_cells"`
	TotalCacheHits uint64             `json:"total_cache_hits"`
	CacheHitRate   float64            `json:"cache_hit_rate"`
	Headline       map[string]float64 `json:"headline,omitempty"`
}

// session threads one CLI invocation's shared state: the printer, the
// experiment options (carrying the shared engine), and the accumulating run
// report.
type session struct {
	p   printer
	opt lukewarm.ExperimentOptions
	eng *lukewarm.Engine
	rep *runReport
}

// step runs one registry entry under a label: it tags the engine's progress
// lines, shows the entry's tables (only table `only` when it is >= 0),
// records its headline metrics, and records its wall time and engine-counter
// deltas in the report. A failed check still shows every table first.
func (s *session) step(label string, e lukewarm.Experiment, only int) error {
	s.eng.SetPhase(label)
	before := s.eng.Stats()
	start := time.Now()
	err := s.show(e, only)
	after := s.eng.Stats()
	r := reportEntry{
		Experiment: label,
		WallMs:     float64(time.Since(start).Microseconds()) / 1000,
		Cells:      after.Cells - before.Cells,
		CacheHits:  after.CacheHits - before.CacheHits,
	}
	if r.Cells > 0 {
		r.CacheHitRate = float64(r.CacheHits) / float64(r.Cells)
	}
	s.rep.Experiments = append(s.rep.Experiments, r)
	return err
}

// show runs e and renders its output.
func (s *session) show(e lukewarm.Experiment, only int) error {
	out, runErr := e.Run(s.opt)
	maps.Copy(s.rep.Headline, out.Headline)
	if out.Note != "" {
		fmt.Println(out.Note)
	}
	tables := out.Tables
	if only >= 0 && only < len(tables) {
		tables = tables[only : only+1]
	}
	for _, t := range tables {
		if err := s.p.show(t); err != nil {
			return err
		}
	}
	return runErr
}

// finish seals the report's totals.
func (s *session) finish(wall time.Duration) {
	st := s.eng.Stats()
	s.rep.TotalWallMs = float64(wall.Microseconds()) / 1000
	s.rep.CellWallMs = float64(st.CellWall.Microseconds()) / 1000
	s.rep.TotalCells = st.Cells
	s.rep.TotalCacheHits = st.CacheHits
	if st.Cells > 0 {
		s.rep.CacheHitRate = float64(st.CacheHits) / float64(st.Cells)
	}
}

// writeReport marshals the run report to path.
func (s *session) writeReport(path string) error {
	data, err := json.MarshalIndent(s.rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runCheck executes the differential-oracle and metamorphic-property
// validation battery; any FAIL row makes the command exit non-zero after the
// full report has been rendered.
func (s *session) runCheck() error {
	rep := lukewarm.Check()
	if err := s.p.show(rep.Table()); err != nil {
		return err
	}
	return rep.Err()
}

// run dispatches one command-line name: `check`, `all`, or a table or entry
// name from the registry.
func (s *session) run(name string) error {
	switch name {
	case "check":
		return s.runCheck()
	case "all":
		for _, e := range lukewarm.Experiments() {
			if err := s.step(e.Name, e, -1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range lukewarm.Experiments() {
		for i, t := range e.Tables {
			if t == "" || t != name {
				continue
			}
			if t == e.Name {
				i = -1
			}
			return s.step(name, e, i)
		}
	}
	return fmt.Errorf("unknown experiment %q (run with no arguments for the list)", name)
}
