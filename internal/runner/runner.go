// Package runner is the experiment execution engine: it takes sets of
// independent simulation cells (workload × platform config × start condition),
// fans them out across a bounded worker pool, and merges the results in
// deterministic submission order, so any experiment's rendered tables are
// byte-identical regardless of the worker count.
//
// On top of the pool the engine layers a content-addressed memoization cache
// (see cell.go for the key definition and cache.go for the tiers) and run
// telemetry: per-cell wall time, cache hit/miss counters, and optional live
// progress lines. The experiment runners in internal/experiments submit all
// their measurements through one Engine, which the lukewarm CLI configures
// from its -jobs, -cache and -progress flags. Engine.Measure is the only way
// a unit runs: a standard cell runs through Execute, which applies the cell's
// start conditions (warm, lukewarm, cold, or after an idle gap; Mode) to a
// fresh instance; a cell whose setup goes further (a comparator prefetcher, a
// traffic simulation, a fleet, a footprint walk, a fault injection) carries
// its own executor in Cell.Exec and a Variant label that keys it apart in
// the cache, and reports through Measurement's flat fields (Traffic,
// FootprintKB, Outcome, ...).
//
// Determinism contract: a cell's result depends only on the cell's content,
// never on scheduling. Every cell builds its own simulated server from its
// own configuration, and all randomness in the stack flows through seeded
// per-instance streams (package program), so concurrent execution cannot
// perturb results. The engine's tests prove this under -race and across
// worker counts.
package runner

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes an Engine. Every field value is meaningful — zero
// values select documented defaults — so there is nothing to reject.
//
//lukewarm:novalidate all field values are valid; zero values select defaults (Jobs -> GOMAXPROCS, CacheDir -> no disk tier)
type Config struct {
	// Jobs is the maximum number of cells simulated concurrently. Zero or
	// negative selects GOMAXPROCS. A batch of n cells uses min(Jobs, n)
	// workers.
	Jobs int
	// CacheDir, when non-empty, adds an on-disk tier to the result cache:
	// cells memoized there are skipped across process runs. The directory is
	// created if missing.
	CacheDir string
	// Progress, when non-nil, receives one line per completed cell:
	//
	//	[12/60] fig10 Pay-N/jukebox 1.8s
	//
	// Writes are serialized; direct this at stderr so stdout tables stay
	// byte-identical.
	Progress io.Writer
}

// Engine executes cell batches. Create one with New and share it across an
// entire run so the cache and telemetry span experiments; the zero value is
// not usable.
type Engine struct {
	jobs     int
	cache    *Cache
	progress io.Writer

	mu    sync.Mutex // guards progress writes and phase
	phase string

	cells    atomic.Uint64
	hits     atomic.Uint64
	cellWall atomic.Int64 // summed per-cell wall time, ns
}

// New builds an engine. An error is returned only when the on-disk cache
// directory cannot be created.
func New(cfg Config) (*Engine, error) {
	if cfg.Jobs <= 0 {
		cfg.Jobs = runtime.GOMAXPROCS(0)
	}
	cache, err := NewCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	return &Engine{jobs: cfg.Jobs, cache: cache, progress: cfg.Progress}, nil
}

// wallNow is the engine's only time source, read once per cell start and
// finish for telemetry (progress lines, CellWall, -report wall times).
// Results never depend on it.
func wallNow() time.Time {
	//lukewarm:wallclock the engine's sole wall-clock read; telemetry only
	return time.Now()
}

// Default builds the engine experiments fall back on when the caller did not
// supply one: GOMAXPROCS workers, in-memory cache, no progress output.
func Default() *Engine {
	e, _ := New(Config{}) // no disk tier: New cannot fail
	return e
}

// Jobs reports the configured worker cap.
func (e *Engine) Jobs() int { return e.jobs }

// SetPhase labels subsequent progress lines (typically the experiment name).
func (e *Engine) SetPhase(name string) {
	e.mu.Lock()
	e.phase = name
	e.mu.Unlock()
}

// Stats is a snapshot of the engine's telemetry counters. Cells counts every
// unit executed (including cache hits); CellWall sums per-cell wall time
// across workers, so it exceeds elapsed time when cells run concurrently.
type Stats struct {
	Cells     uint64
	CacheHits uint64
	CellWall  time.Duration
}

// Stats returns the current counter snapshot. Take deltas of two snapshots
// for per-experiment accounting.
func (e *Engine) Stats() Stats {
	return Stats{
		Cells:     e.cells.Load(),
		CacheHits: e.hits.Load(),
		CellWall:  time.Duration(e.cellWall.Load()),
	}
}

// note records one finished cell and emits its progress line.
func (e *Engine) note(done, total int, label string, wall time.Duration, hit bool) {
	e.cells.Add(1)
	if hit {
		e.hits.Add(1)
	}
	e.cellWall.Add(int64(wall))
	if e.progress == nil {
		return
	}
	suffix := ""
	if hit {
		suffix = " (cached)"
	}
	e.mu.Lock()
	phase := e.phase
	if phase != "" {
		phase += " "
	}
	fmt.Fprintf(e.progress, "[%d/%d] %s%s %s%s\n",
		done, total, phase, label, wall.Round(time.Millisecond), suffix)
	e.mu.Unlock()
}

// Measure executes a batch of cells on the worker pool and returns their
// measurements in cell order. A cell is served from the cache when it can
// be; a miss runs its Exec, or Execute when it has none. Every cell runs even
// if one fails; the error returned is the lowest-index failure's, so errors
// are as deterministic as results. An Exec must not call Measure on the same
// engine: workers would deadlock waiting for themselves.
func (e *Engine) Measure(cells []Cell) ([]Measurement, error) {
	n := len(cells)
	if n == 0 {
		return nil, nil
	}
	results := make([]Measurement, n)
	errs := make([]error, n)
	var done atomic.Int64

	run := func(i int) {
		start := wallNow()
		var hit bool
		results[i], hit, errs[i] = e.measureCell(cells[i])
		e.note(int(done.Add(1)), n, cells[i].Label(), wallNow().Sub(start), hit)
	}

	// min(jobs, n) workers claim cells in index order from a shared counter.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(e.jobs, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				run(i)
			}
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// measureCell serves one cell from the cache or runs it, reporting whether
// it was a cache hit.
func (e *Engine) measureCell(c Cell) (Measurement, bool, error) {
	if err := c.validate(); err != nil {
		return Measurement{}, false, err
	}
	key := c.Key()
	if m, ok := e.cache.Get(key); ok {
		return m, true, nil
	}
	exec := c.Exec
	if exec == nil {
		exec = Execute
	}
	m, err := exec(c)
	if err != nil {
		return m, false, err
	}
	if err := e.cache.Put(key, m); err != nil {
		return m, false, fmt.Errorf("runner: cell %s: %w", c.Label(), err)
	}
	return m, false, nil
}
