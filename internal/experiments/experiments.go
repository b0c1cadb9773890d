// Package experiments contains one runner per figure and table of the
// paper's evaluation (see DESIGN.md's per-experiment index). Each runner
// describes its measurements as independent simulation cells and submits
// them to the execution engine (internal/runner), which fans them out across
// a worker pool and memoizes results by content; the cmd/lukewarm binary and
// the repository's benchmarks drive them.
package experiments

import (
	"fmt"
	"strings"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/faults"
	"lukewarm/internal/runner"
	"lukewarm/internal/serverless"
	"lukewarm/internal/workload"
)

// Options scales an experiment run. The zero value selects defaults sized
// for interactive use; the paper's methodology (20 measured invocations
// after checkpoint warm-up) corresponds to Warmup: 2, Measure: 20.
type Options struct {
	// Warmup is the number of unmeasured invocations run first: they warm
	// the reference configuration's caches and record the first Jukebox
	// metadata generation (standing in for the paper's 20000-invocation
	// functional warm-up and checkpoint). Zero selects the default of 2;
	// a negative value requests no warm-up.
	Warmup int
	// Measure is the number of measured invocations per configuration.
	Measure int
	// Functions restricts the suite to the named functions (nil = all 20).
	Functions []string
	// Audit runs the faults.Audit invariant checks on every measured
	// invocation and on the per-window cache counters, failing the
	// experiment with an error on any violation.
	Audit bool
	// Engine executes the experiment's simulation cells. Nil selects a
	// fresh default engine (GOMAXPROCS workers, in-memory result cache);
	// the CLI shares one configured engine across all experiments so the
	// cache and telemetry span the whole run.
	Engine *runner.Engine
	// Seed seeds the chaos experiment's fault plans.
	Seed uint64
}

func (o Options) withDefaults() Options {
	switch {
	case o.Warmup < 0:
		o.Warmup = 0
	case o.Warmup == 0:
		o.Warmup = 2
	}
	if o.Measure <= 0 {
		o.Measure = 3
	}
	if o.Engine == nil {
		o.Engine = runner.Default()
	}
	return o
}

// cell describes one standard measurement with the run's window settings.
func (o Options) cell(w string, cfg cpu.Config, jb *core.Config, perfect bool, md mode) runner.Cell {
	return runner.Cell{
		Workload: w, CPU: cfg, Jukebox: jb, Perfect: perfect, Mode: md,
		Warmup: o.Warmup, Measure: o.Measure, Audit: o.Audit,
	}
}

// variantCell is cell with its own executor, keyed apart from standard cells
// by the variant label (see runner.Cell.Exec).
func (o Options) variantCell(variant, w string, cfg cpu.Config, jb *core.Config, md mode, exec func(runner.Cell) (measured, error)) runner.Cell {
	c := o.cell(w, cfg, jb, false, md)
	c.Variant, c.Exec = variant, exec
	return c
}

// trafficCell is a variantCell whose executor deploys suite, in order, on a
// Skylake server with cores cores and the cell's Jukebox and REAP
// configurations, then serves traffic() through it. traffic is called once
// per execution: placers, keep-alives and forecasters learn, so every run
// needs fresh ones. Under Audit the result's conservation invariants (and,
// with Predict armed, the pre-warm ledger's) are checked.
func (o Options) trafficCell(variant string, suite []workload.Workload, cores int, jb *core.Config, md mode, traffic func() serverless.TrafficConfig) runner.Cell {
	return o.variantCell(variant, suiteTag(suite), cpu.SkylakeConfig(), jb, md, func(c runner.Cell) (measured, error) {
		srv := serverless.New(serverless.Config{CPU: c.CPU, Cores: cores, Jukebox: c.Jukebox, Reap: c.Reap})
		defer srv.Release()
		for _, w := range suite {
			srv.Deploy(w)
		}
		cfg := traffic()
		res, err := srv.ServeTraffic(cfg)
		if err != nil {
			return measured{}, err
		}
		if c.Audit {
			err = faults.AuditTraffic(res)
			if err == nil && cfg.Predict != nil {
				err = faults.AuditPredict(res.Prewarm, cfg.Predict.Forecaster.Name())
			}
			if err != nil {
				return measured{}, fmt.Errorf("%s: %w", c.Label(), err)
			}
		}
		return measured{Traffic: &res}, nil
	})
}

// suite resolves the selected workloads (the whole suite when
// o.Functions is empty), erroring on unknown names.
func (o Options) suite() ([]workload.Workload, error) {
	if len(o.Functions) == 0 {
		return workload.Suite(), nil
	}
	ws := make([]workload.Workload, len(o.Functions))
	for i, name := range o.Functions {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return ws, nil
}

// suiteTag names a cell that deploys several functions: their names joined
// by "+", in deployment order.
func suiteTag(ws []workload.Workload) string {
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return strings.Join(names, "+")
}

// mode is a measurement's start condition (see runner.Mode).
type mode = runner.Mode

const (
	// reference: back-to-back invocations, fully warm (Sec. 2.3).
	reference = runner.Reference
	// lukewarm: full microarchitectural flush before every invocation —
	// the paper's interleaved/baseline configuration.
	lukewarm = runner.Lukewarm
)

// warmedUnder returns c with its warm-up run under md instead of its
// measured start condition.
func warmedUnder(c runner.Cell, md mode) runner.Cell {
	c.WarmupMode = &md
	return c
}

// measured aggregates one measurement window (see runner.Measurement).
type measured = runner.Measurement
