// Package lukewarm is a full reproduction of "Lukewarm Serverless Functions:
// Characterization and Optimization" (Schall et al., ISCA 2022) as a
// self-contained Go library.
//
// The paper observes that warm serverless function instances, invoked
// seconds or minutes apart on highly consolidated hosts, find their
// microarchitectural state obliterated by interleaved executions — a
// "lukewarm" invocation that runs 31-114% slower than a truly warm one, with
// instruction-fetch latency the dominant cost. It proposes Jukebox, a
// record-and-replay instruction prefetcher that stores ~32 KB of
// spatio-temporal metadata per instance in main memory and bulk-prefetches
// the recorded working set into the L2 when the instance is rescheduled,
// recovering an average 18.7% of performance.
//
// This package is the facade over the simulation stack:
//
//   - NewServer builds a simulated host (core, cache hierarchy, MMU) and
//     deploys warm function instances with or without Jukebox.
//   - Suite and FunctionByName provide the paper's 20-workload evaluation
//     suite (Table 2), realized as calibrated synthetic programs.
//   - Experiments lists the runners that regenerate every figure and table
//     of the paper's evaluation; see DESIGN.md for the per-experiment index
//     and EXPERIMENTS.md for paper-vs-measured results.
//
// # Quick start
//
//	srv := lukewarm.NewServer(lukewarm.ServerConfig{})
//	fn, _ := lukewarm.FunctionByName("Auth-G")
//	inst := srv.Deploy(fn)
//	warm := srv.RunReference(inst, 3)   // back-to-back: fully warm
//	luke := srv.RunLukewarm(inst, 3)    // state flushed between invocations
//	fmt.Printf("lukewarm penalty: %.0f%%\n", (luke.CPI()/warm.CPI()-1)*100)
//
// Attach Jukebox by setting ServerConfig.Jukebox to a configuration from
// DefaultJukeboxConfig. Everything is deterministic: the same program run
// twice produces identical cycle counts.
package lukewarm

import (
	"io"

	"lukewarm/internal/cfgerr"
	"lukewarm/internal/check"
	"lukewarm/internal/cluster"
	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/experiments"
	"lukewarm/internal/faults"
	"lukewarm/internal/mem"
	"lukewarm/internal/pif"
	"lukewarm/internal/predict"
	"lukewarm/internal/program"
	"lukewarm/internal/reap"
	"lukewarm/internal/runner"
	"lukewarm/internal/sched"
	"lukewarm/internal/serverless"
	"lukewarm/internal/stats"
	"lukewarm/internal/topdown"
	"lukewarm/internal/trace"
	"lukewarm/internal/workload"
)

// Core simulation types, re-exported from the implementation packages.
type (
	// Server is a simulated serverless host: one core plus its co-resident
	// warm function instances.
	Server = serverless.Server
	// ServerConfig configures a Server (platform, cores, Jukebox, REAP).
	ServerConfig = serverless.Config
	// Instance is one warm, memory-resident function instance.
	Instance = serverless.Instance
	// RunResult is one invocation's timing outcome, including its Top-Down
	// cycle stack.
	RunResult = cpu.RunResult
	// CPUConfig describes a simulated platform (core + caches + MMU).
	CPUConfig = cpu.Config
	// Workload is one function of the evaluation suite.
	Workload = workload.Workload
	// JukeboxConfig parameterizes the Jukebox prefetcher.
	JukeboxConfig = core.Config
	// Jukebox is the record-and-replay instruction prefetcher — the
	// paper's contribution.
	Jukebox = core.Jukebox
	// PIFConfig parameterizes the PIF comparator prefetcher.
	PIFConfig = pif.Config
	// PIF is the Proactive Instruction Fetch baseline (Ferdman et al.).
	PIF = pif.PIF
	// ReapConfig parameterizes the REAP-style page-granular working-set
	// recorder and restore-time prefetcher (Ustiugov et al., ASPLOS'21).
	ReapConfig = reap.Config
	// Reap is one instance's working-set recorder/prefetcher.
	Reap = reap.Reap
	// ReapStats are the recorder/prefetcher counters AuditReap checks.
	ReapStats = reap.Stats
	// ReapManifest is a sealed page manifest — the REAP record file.
	ReapManifest = reap.Manifest
	// ProgramConfig describes a custom synthetic function program.
	ProgramConfig = program.Config
	// Program is a synthetic function program.
	Program = program.Program
	// TopDownStack is a Top-Down cycle decomposition.
	TopDownStack = topdown.Stack
	// ExperimentOptions scales experiment runs (warmup/measured invocations,
	// the function subset and the chaos seed).
	ExperimentOptions = experiments.Options
	// Experiment is one entry of the evaluation (see Experiments).
	Experiment = experiments.Experiment
	// Table is an aligned text table, the output format of experiments.
	Table = stats.Table
	// TopDownCategory is one Top-Down cycle class.
	TopDownCategory = topdown.Category
	// CacheStats are the per-cache counters (demand hits/misses by kind,
	// prefetch coverage accounting).
	CacheStats = mem.CacheStats
	// MemKind distinguishes instruction from data traffic.
	MemKind = mem.Kind
	// Cycle is a point in simulated time, in CPU clock cycles.
	Cycle = mem.Cycle
	// TrafficResult aggregates one ServeTraffic run.
	TrafficResult = serverless.TrafficResult
	// Placer decides which core serves an invocation (see TrafficConfig).
	Placer = sched.Placer
	// KeepAlive decides instance eviction between invocations (see TrafficConfig).
	KeepAlive = sched.KeepAlive
	// HybridKeepAliveConfig parameterizes the hybrid-histogram keep-alive
	// policy (Shahrad et al., ATC'20).
	HybridKeepAliveConfig = sched.HybridConfig
	// FleetConfig configures a fault-tolerant multi-node fleet simulation
	// (see RunFleet).
	FleetConfig = cluster.Config
	// FleetResult aggregates one fleet simulation run.
	FleetResult = cluster.Result
	// FleetSummary is FleetResult's flat, cacheable projection.
	FleetSummary = cluster.Summary
	// FleetCounters is the request-conservation ledger AuditFleet checks.
	FleetCounters = faults.FleetCounters
	// PredictConfig arms predictive pre-warming on a traffic simulation
	// (TrafficConfig.Predict): forecaster, lead time, per-function
	// mechanism choice and optional fleet budget.
	PredictConfig = predict.Config
	// Forecaster predicts a function's next inter-arrival gap; see
	// NewForecaster for the built-in implementations.
	Forecaster = predict.Forecaster
	// PrewarmLedger is the pre-warm conservation ledger (scheduled =
	// used + partial + wasted) that AuditPredict checks.
	PrewarmLedger = predict.Ledger
	// PrewarmBudget rate-limits pre-warms fleet-wide; see NewPrewarmBudget.
	PrewarmBudget = predict.Budget
	// FaultKind enumerates the injectable fault classes.
	FaultKind = faults.Kind
	// FaultPlan is one seeded fault-injection campaign.
	FaultPlan = faults.Plan
	// Engine executes experiment simulation cells on a worker pool with a
	// content-addressed result cache; share one via ExperimentOptions.Engine
	// to pool cached results and telemetry across experiments.
	Engine = runner.Engine
	// EngineConfig configures an Engine (worker count, on-disk cache
	// directory, progress stream).
	EngineConfig = runner.Config
	// EngineStats is a snapshot of an Engine's run telemetry.
	EngineStats = runner.Stats
)

// ErrBadConfig is the sentinel wrapped by every configuration-validation
// error in the library; test for it with errors.Is.
var ErrBadConfig = cfgerr.ErrBadConfig

// Top-Down categories (Yasin, ISPASS'14 level 1, with the level-2 front-end
// split the paper uses).
const (
	Retiring       = topdown.Retiring
	FetchLatency   = topdown.FetchLatency
	FetchBandwidth = topdown.FetchBandwidth
	BadSpeculation = topdown.BadSpeculation
	BackendBound   = topdown.BackendBound
)

// Memory traffic kinds.
const (
	InstrKind = mem.Instr
	DataKind  = mem.Data
)

// NewEngine builds an experiment execution engine. The zero EngineConfig
// selects GOMAXPROCS workers and an in-memory result cache; set CacheDir for
// a persistent on-disk tier and Progress for live per-cell progress lines.
func NewEngine(cfg EngineConfig) (*Engine, error) { return runner.New(cfg) }

// NewServer builds a simulated host. The zero ServerConfig selects the
// paper's Skylake-like platform with no prefetcher. Invalid configurations
// panic; use NewServerErr to get the error instead.
func NewServer(cfg ServerConfig) *Server { return serverless.New(cfg) }

// NewServerErr builds a simulated host, returning an error (wrapping
// ErrBadConfig) instead of panicking on an invalid configuration.
func NewServerErr(cfg ServerConfig) (*Server, error) { return serverless.NewErr(cfg) }

// Suite returns the paper's 20-function evaluation suite (Table 2) in
// figure order.
func Suite() []Workload { return workload.Suite() }

// FunctionNames lists the suite's function names in figure order.
func FunctionNames() []string { return workload.Names() }

// FunctionByName builds the named workload (e.g. "Auth-G", "Email-P").
func FunctionByName(name string) (Workload, error) { return workload.ByName(name) }

// NewProgram builds a custom synthetic function from cfg; deploy it by
// wrapping it in a Workload. Invalid configurations return an error wrapping
// ErrBadConfig.
func NewProgram(cfg ProgramConfig) (*Program, error) { return program.NewErr(cfg) }

// SkylakeConfig returns the paper's Table 1 simulation platform.
func SkylakeConfig() CPUConfig { return cpu.SkylakeConfig() }

// BroadwellConfig returns the Sec. 5.6 platform with a 256 KB L2.
func BroadwellConfig() CPUConfig { return cpu.BroadwellConfig() }

// CharacterizationConfig returns the Sec. 4.1 characterization host.
func CharacterizationConfig() CPUConfig { return cpu.CharacterizationConfig() }

// DefaultJukeboxConfig returns the paper's preferred Jukebox configuration:
// 1 KB regions, 16-entry CRRB, 16 KB metadata per direction.
func DefaultJukeboxConfig() JukeboxConfig { return core.DefaultConfig() }

// DefaultPIFConfig returns the published PIF configuration.
func DefaultPIFConfig() PIFConfig { return pif.DefaultConfig() }

// DefaultReapConfig returns the default REAP recorder/prefetcher
// configuration: an 8192-page manifest that each invocation reseals from its
// own recording. Attach it by setting ServerConfig.Reap.
func DefaultReapConfig() ReapConfig { return reap.DefaultConfig() }

// IdealPIFConfig returns PIF-ideal: unlimited, persistent metadata.
func IdealPIFConfig() PIFConfig { return pif.IdealConfig() }

// NewPIF builds a PIF attached to the server's hierarchy; install it with
// srv.AttachCorePrefetcher.
func NewPIF(cfg PIFConfig, srv *Server) *PIF { return pif.New(cfg, srv.Core.Hier) }

// Experiments lists every figure and table of the paper's evaluation, plus
// the reproduction's ablations and extensions, in paper order. Each entry's
// Run accepts ExperimentOptions to scale warmup/measurement and restrict the
// function set (the zero value runs the full suite at a quick default).
func Experiments() []Experiment { return experiments.All() }

// RunFleet simulates a fault-tolerant fleet: identical nodes behind a
// retrying, hedging, health-checking front end with a graceful-degradation
// ladder, under a seeded fault plan injecting node crashes, instance
// crashes and dispatch flakes. Deterministic for a fixed configuration.
func RunFleet(cfg FleetConfig) (FleetResult, error) { return cluster.Run(cfg) }

// AuditFleetResult checks a fleet run against the request-conservation
// invariants (offered == served + shed + failed, retry and hedge ledgers
// balance, no request served by a down node) plus per-node traffic audits.
func AuditFleetResult(r *FleetResult) error { return cluster.Audit(r) }

// AuditFleet checks a raw fleet-counter ledger's conservation invariants.
func AuditFleet(c FleetCounters) error { return faults.AuditFleet(c) }

// AuditReap checks a REAP stats snapshot's conservation invariants
// (prefetched bytes bounded by manifest bytes, restored pages partition into
// used/wasted, no counter double-counts a page as both prefetched and
// demand-faulted).
func AuditReap(s ReapStats) error { return faults.AuditReap(s) }

// NewForecaster builds a fresh arrival forecaster by name — "histpeak"
// (log-scale IAT histogram mode), "ewma" (exponentially weighted next gap)
// or "oracle" (peeks at the true schedule; upper bound). Unknown names
// return nil.
func NewForecaster(name string) Forecaster { return predict.NewForecaster(name) }

// NewPrewarmBudget builds a shared pre-warm allowance: total caps scheduled
// pre-warms fleet-wide (0 = unlimited), refractoryMs is the minimum spacing
// between granted pre-warms of the same function anywhere in the fleet
// (+Inf: one per function per run). A run handed a negative total or a
// negative or NaN refractoryMs fails with ErrBadConfig.
func NewPrewarmBudget(total int, refractoryMs float64) *PrewarmBudget {
	return predict.NewBudget(total, refractoryMs)
}

// AuditPredict checks a pre-warm ledger's conservation invariants; a
// non-empty forecaster name ("oracle") enables forecaster-specific checks.
func AuditPredict(l PrewarmLedger, forecaster string) error {
	return faults.AuditPredict(l, forecaster)
}

// Placement policies for TrafficConfig.Placer.

// EarliestAvailablePlacer dispatches to the core that frees up first — the
// historical default.
func EarliestAvailablePlacer() Placer { return sched.EarliestAvailable() }

// RoundRobinPlacer stripes invocations across cores in order.
func RoundRobinPlacer() Placer { return sched.RoundRobin() }

// StickyAffinityPlacer routes an invocation back to the core whose L1-I/L2/
// BTB state its function warmed most recently, unless more than patience
// foreign invocations have run there since (patience <= 0 selects the
// default).
func StickyAffinityPlacer(patience int) Placer { return sched.StickyAffinity(patience) }

// JukeboxAwarePlacer prefers the core the instance's Jukebox metadata is
// already bound to when it frees up within slackMs of the earliest core
// (slackMs <= 0 selects the default), minimizing Bind churn.
func JukeboxAwarePlacer(slackMs float64) Placer { return sched.JukeboxAware(slackMs) }

// Keep-alive policies for TrafficConfig.KeepAlive.

// FixedTimeoutKeepAlive evicts an instance idle longer than timeoutMs.
func FixedTimeoutKeepAlive(timeoutMs float64) KeepAlive { return sched.FixedTimeout(timeoutMs) }

// NoEvictKeepAlive never evicts.
func NoEvictKeepAlive() KeepAlive { return sched.NoEvict() }

// HybridKeepAlive learns a per-function inter-arrival histogram and derives
// a keep-alive head window plus a pre-warm point from it (Shahrad et al.,
// ATC'20). The zero config selects defaults.
func HybridKeepAlive(cfg HybridKeepAliveConfig) KeepAlive { return sched.HybridHistogram(cfg) }

// FaultKinds lists every injectable fault kind in matrix order.
func FaultKinds() []FaultKind { return faults.Kinds() }

// NewFaultPlan builds a deterministic seeded fault-injection campaign with
// the given kinds armed. Apply it at the seams it targets (see the
// internal/faults package documentation).
func NewFaultPlan(seed uint64, kinds ...FaultKind) *FaultPlan {
	return faults.NewPlan(seed, kinds...)
}

// AuditRun checks one invocation result's conservation invariants (Top-Down
// stack sums to total cycles, no negative counters).
func AuditRun(r RunResult) error { return faults.Audit(r) }

// AuditTraffic checks a traffic run's aggregate invariants.
func AuditTraffic(r TrafficResult) error { return faults.AuditTraffic(r) }

// CheckReport is the outcome of the validation battery: differential oracles
// cross-checking the cache, BTB, TLB, and fetch pipeline against naive
// reference models, plus metamorphic invariants over whole runs.
type CheckReport = check.Report

// Check runs the full validation battery and returns its report. Render it
// with CheckReport.Table; CheckReport.Err is non-nil if any check failed.
// The `lukewarm check` subcommand wraps this.
func Check() *CheckReport { return check.Run() }

// TrafficConfig drives Server.ServeTraffic system-level simulations.
type TrafficConfig = serverless.TrafficConfig

// DefaultTrafficConfig returns a representative 1 s Poisson workload.
func DefaultTrafficConfig() TrafficConfig { return serverless.DefaultTrafficConfig() }

// Trace I/O: capture instruction streams to the compact binary format and
// replay them through the core (see cmd/tracecap for the CLI).
type (
	// TraceWriter serializes an instruction stream.
	TraceWriter = trace.Writer
	// TraceReader replays a serialized stream; it implements the core's
	// instruction-source interface.
	TraceReader = trace.Reader
)

// CaptureTrace writes invocation id of fn's program to w.
func CaptureTrace(fn Workload, id uint64, w io.Writer) (instructions uint64, err error) {
	return trace.Capture(fn.Program, id, w)
}

// NewTraceWriter starts a trace stream on w.
func NewTraceWriter(w io.Writer) (*TraceWriter, error) { return trace.NewWriter(w) }

// NewTraceReader opens a trace stream for replay.
func NewTraceReader(r io.Reader) (*TraceReader, error) { return trace.NewReader(r) }

// ReadTrace decodes a whole serialized trace stream, rejecting malformed
// input with a typed error. maxInstrs bounds allocation; <= 0 selects a
// 16M-instruction default.
func ReadTrace(r io.Reader, maxInstrs uint64) ([]program.Instr, error) {
	return trace.Read(r, maxInstrs)
}
