// Package bench is lukewarm's benchmark. Four workloads are timed end to
// end on the host with tracing off; a separate traced run of each breaks its
// host time down by the simulator's layers and reports what the layers do
// not account for. cmd/lukebench is its command line; README.md lists the
// workloads, the metrics and how the bounds in BENCHMARK.json were set.
//
// The benchmark reaches the simulator only through the calls a user makes
// (Server.Invoke, Server.FlushMicroarch, cluster.Run, the experiment entry
// points) and through the policies it hands the simulator; it changes no
// simulator code.
package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"lukewarm/internal/cfgerr"
)

// Config selects one benchmark run.
type Config struct {
	// Workload names one of workloads.
	Workload string
	// Seed derives every input. Pass k of an untraced run uses seed
	// Seed+k%2, so every pass from the third on repeats an earlier one and
	// must reproduce its digest; a traced run uses Seed.
	Seed uint64
	// Seconds bounds an untraced run: passes continue while the next is
	// expected to end within it, and at least one runs.
	Seconds float64
	// Trace selects the traced run: one untraced and one traced pass of
	// the same seed, then the layer replays.
	Trace bool
	// Smoke shrinks every pass to about a second, for tests.
	Smoke bool
}

// Validate reports an unknown workload or a negative time budget; errors
// wrap cfgerr.ErrBadConfig.
func (c Config) Validate() error {
	if _, ok := workloadByName(c.Workload); !ok {
		return cfgerr.New("bench: unknown workload %q (want one of %s)", c.Workload, strings.Join(WorkloadNames(), ", "))
	}
	if c.Seconds < 0 || math.IsNaN(c.Seconds) {
		return cfgerr.New("bench: Seconds must be non-negative, got %g", c.Seconds)
	}
	return nil
}

// WorkloadNames lists the workloads in BENCHMARK.json order.
func WorkloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Metric is one reported value and its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what a run prints last: whether every output checked out, how
// many operations were attempted and failed, and the metrics.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Run performs one benchmark run, logging per-pass digests, problems and
// (when traced) attribution tables to log. The returned tracer holds the
// traced run's spans and is nil for untraced runs.
func Run(cfg Config, log io.Writer) (Result, *Tracer, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, nil, err
	}
	def, _ := workloadByName(cfg.Workload)
	if cfg.Trace {
		return traced(def, cfg, log)
	}
	res, err := measured(def, cfg, log)
	return res, nil, err
}

// passRun is one set-up-and-pass cycle.
type passRun struct {
	setupS, wallS float64
	out           passOut
}

// runPass sets the workload up for seed and makes one pass with tr.
func runPass(def workloadDef, seed uint64, smoke bool, tr *Tracer) (passRun, passer, error) {
	runtime.GC() // every pass starts from a collected heap
	t := time.Now()
	p, err := def.setup(seed, smoke)
	if err != nil {
		return passRun{}, nil, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	setup := time.Since(t)
	t = time.Now()
	out := p.pass(tr)
	wall := time.Since(t)
	out.wallNs = int64(wall)
	return passRun{setup.Seconds(), wall.Seconds(), out}, p, nil
}

// measured is the untraced run the end-to-end metrics come from. Passes of
// one seed repeat the same ops, and the host's other tenants only ever slow
// an op down, so each op counts with the fastest of its repeats and the run
// with its fastest pass; a cold first pass is never the fastest.
func measured(def workloadDef, cfg Config, log io.Writer) (Result, error) {
	start := time.Now()
	var setups, walls []float64
	var best fastest
	var res Result
	for k := 0; ; k++ {
		seed, slot := cfg.Seed+uint64(k%2), k%2
		if def.seedless {
			slot = 0
		}
		r, _, err := runPass(def, seed, cfg.Smoke, nil)
		if err != nil {
			return Result{}, err
		}
		if err := best.add(slot, r.out); err != nil {
			r.out.failed = r.out.ops
			r.out.problems = append(r.out.problems, err.Error())
		}
		logPass(log, k, seed, r)
		res.Attempted += r.out.ops
		res.Failed += r.out.failed
		setups = append(setups, r.setupS)
		walls = append(walls, r.wallS)
		if time.Since(start).Seconds()+r.setupS+r.wallS > cfg.Seconds {
			break
		}
	}
	ops := append(slices.Clone(best.ops[0]), best.ops[1]...)
	if tail := tailPercentile(len(ops)); tail < 90 {
		fmt.Fprintf(log, "note: %d ops leave fewer than 10 beyond p90 (the highest supported percentile is %.2f)\n", len(ops), tail)
	}
	vals := map[string]float64{
		"wall_s":      slices.Min(walls),
		"op_ms_p50":   percentile(ops, 50),
		"op_ms_p90":   percentile(ops, 90),
		"setup_s":     Median(setups),
		"peak_rss_mb": peakRSSMB(),
	}
	fmt.Fprintf(log, "%d passes, %d distinct ops\n", len(walls), len(ops))
	return finish(res, endToEnd, vals)
}

// fastest holds each op's fastest time over the passes that repeat it, with
// one slot per seed of a run.
type fastest struct {
	ops     [2][]float64
	digests [2]uint64
}

// add folds a pass of slot in, or reports how it differs from the slot's
// first pass; a repeat must simulate, and time, the same ops.
func (f *fastest) add(slot int, out passOut) error {
	switch b := f.ops[slot]; {
	case b == nil:
		f.ops[slot] = slices.Clone(out.opMs)
		f.digests[slot] = out.digest
	case out.digest != f.digests[slot] || len(out.opMs) != len(b):
		return fmt.Errorf("sim_digest %016x and %d timed ops differ from %016x and %d of an earlier pass with the same inputs",
			out.digest, len(out.opMs), f.digests[slot], len(b))
	default:
		for i, ms := range out.opMs {
			b[i] = min(b[i], ms)
		}
	}
	return nil
}

// traced is the traced run the per-layer metrics come from.
func traced(def workloadDef, cfg Config, log io.Writer) (Result, *Tracer, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, _, err := runPass(def, cfg.Seed, cfg.Smoke, nil)
	if err != nil {
		return Result{}, nil, err
	}
	logPass(log, 0, cfg.Seed, plain)
	tr := NewTracer()
	r, p, err := runPass(def, cfg.Seed, cfg.Smoke, tr)
	if err != nil {
		return Result{}, nil, err
	}
	if r.out.digest != plain.out.digest {
		r.out.failed = r.out.ops
		r.out.problems = append(r.out.problems, fmt.Sprintf("traced sim_digest %016x differs from untraced %016x", r.out.digest, plain.out.digest))
	}
	logPass(log, 1, cfg.Seed, r)
	res := Result{Attempted: plain.out.ops + r.out.ops, Failed: plain.out.failed + r.out.failed}
	vals, tables, err := p.layers(r.out, tr)
	if err != nil {
		return Result{}, nil, err
	}
	for _, a := range tables {
		a.write(log)
	}
	runtime.ReadMemStats(&after)
	vals["trace.overhead_pct"] = 100 * (r.wallS - plain.wallS) / plain.wallS
	vals["gc.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	vals["gc.cycles"] = float64(after.NumGC - before.NumGC)
	vals["gc.pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	res, err = finish(res, perLayer, vals)
	return res, tr, err
}

// finish fills res with every metric of defs, 0 for those vals lacks (a
// count or share of a layer the workload bypasses), and judges correctness.
func finish(res Result, defs []metricDef, vals map[string]float64) (Result, error) {
	res.Metrics = map[string]Metric{}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Result{}, fmt.Errorf("bench: metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = Metric{v, d.Unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

func logPass(log io.Writer, k int, seed uint64, r passRun) {
	fmt.Fprintf(log, "pass %d seed %d: setup %.3fs, wall %.3fs, %d ops, %d failed, sim_digest %016x\n",
		k, seed, r.setupS, r.wallS, r.out.ops, r.out.failed, r.out.digest)
	for _, p := range r.out.problems {
		fmt.Fprintf(log, "  problem: %s\n", p)
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
