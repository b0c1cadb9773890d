package runner

import (
	"fmt"
	"hash/fnv"
	"math"

	"lukewarm/internal/cfgerr"
	"lukewarm/internal/cluster"
	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/faults"
	"lukewarm/internal/mem"
	"lukewarm/internal/reap"
	"lukewarm/internal/serverless"
	"lukewarm/internal/stats"
	"lukewarm/internal/topdown"
	"lukewarm/internal/workload"
)

// SchemaVersion is folded into every cache key. Bump it whenever the
// Measurement layout or the simulator's semantics change, so stale on-disk
// cache entries can never be mistaken for current results — invalidation by
// construction, no cleanup pass needed.
//
// v2: Measurement gained the Traffic field (scheduling experiments).
// v3: Measurement gained the Cluster field and the traffic summary gained
// Offered/Failed (fleet simulation).
// v4: Cells gained the Reap field and Measurement the Reap stats (REAP
// working-set restore; the data-access observer also shifts prefetcher
// composition semantics).
// v5: the traffic summary gained the readiness-tier partition and the
// predictive pre-warm ledger (internal/predict).
// v6: Traffic holds the serverless.TrafficResult itself, not a projection
// of it. Gob matches fields by name, so a v5 entry would decode with CPI,
// ServiceCycles and LatencyCycles silently zero.
// v7: Measurement gained FootprintKB/Jaccard (Fig. 6 footprint cells) and
// Outcome/Detail (chaos cells), which used to bypass the cache.
// v8: Mode gained Cold and Idle, and Cells gained WarmupMode and IdleMs:
// cold, idle-gap and mixed warm-up cells are standard cells, keyed by
// content instead of a Variant label. Every window now records
// FirstInvCycles, and record-only cells report their size in
// JB.LastRecordBytes instead of MetaBytes.
const SchemaVersion = 8

// Mode is a start condition: the state an invocation finds the machine in
// (Fig. 1's axis, Sec. 2.3).
type Mode uint8

// The start conditions. Each is applied before every invocation it
// governs.
const (
	// Reference: back-to-back invocations, fully warm.
	Reference Mode = iota
	// Lukewarm: full microarchitectural flush before every invocation — the
	// interleaved/baseline configuration.
	Lukewarm
	// Cold: the instance is evicted (its pages and Jukebox metadata are
	// gone; a REAP manifest survives), then the microarchitecture is
	// flushed.
	Cold
	// Idle: an idle gap of Cell.IdleMs (serverless.Server.AdvanceIAT), in
	// which co-resident work partially thrashes every structure.
	Idle
)

var modeNames = [...]string{Reference: "ref", Lukewarm: "lukewarm", Cold: "cold", Idle: "idle"}

// String implements fmt.Stringer.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Cell describes one independent simulation: which workload runs on which
// platform under which start conditions, and how much of it is measured.
// Cells are pure values — the executor builds a fresh server from the
// content, so two cells with equal content always produce equal
// measurements. That property is what makes them content-addressable; the
// content is every field but Exec.
type Cell struct {
	// Workload names the function (workload.ByName).
	Workload string
	// CPU is the platform configuration.
	CPU cpu.Config
	// Jukebox, when non-nil, deploys the instance with a Jukebox.
	Jukebox *core.Config
	// Reap, when non-nil, deploys the instance with a REAP working-set
	// recorder/restorer (internal/reap).
	Reap *reap.Config
	// Perfect services instruction fetches at L1 latency (Fig. 10's bound).
	Perfect bool
	// Mode is the measured invocations' start condition.
	Mode Mode
	// WarmupMode, when non-nil, is the warm-up invocations' start
	// condition; nil warms up under Mode.
	WarmupMode *Mode
	// IdleMs is the Idle start condition's gap in milliseconds. It must be
	// zero unless Mode or the warm-up is Idle; an Idle gap of 0 is a
	// back-to-back invocation.
	IdleMs float64
	// Warmup and Measure are the unmeasured and measured invocation counts.
	Warmup, Measure int
	// Audit cross-checks every measured invocation against the faults
	// package's conservation invariants.
	Audit bool
	// Variant names the setup of a cell that carries its own executor
	// (comparator prefetchers, compaction, snapshot adoption, traffic
	// sweeps, footprint walks, fault injection); standard cells leave it
	// empty. It is a cache-key and progress label only: nothing parses it
	// back.
	Variant string
	// Exec, when non-nil, runs the cell on a cache miss in place of
	// Execute. It is set exactly when Variant is non-empty (Engine.Measure
	// rejects either mismatch), and it is not part of the content Key
	// hashes: Variant, together with the cell's other fields, must
	// determine everything Exec reads.
	Exec func(Cell) (Measurement, error)
}

// warmupMode is the warm-up invocations' start condition.
func (c Cell) warmupMode() Mode {
	if c.WarmupMode != nil {
		return *c.WarmupMode
	}
	return c.Mode
}

// start renders the cell's start conditions: the window's, preceded by the
// warm-up's when they differ ("lukewarm>idle=8ms").
func (c Cell) start() string {
	render := func(m Mode) string {
		if m == Idle {
			return fmt.Sprintf("idle=%gms", c.IdleMs)
		}
		return m.String()
	}
	s := render(c.Mode)
	if w := c.warmupMode(); w != c.Mode {
		s = render(w) + ">" + s
	}
	return s
}

// validate rejects a cell whose content is contradictory: an Exec without
// a Variant or the reverse, an unknown Mode, or an IdleMs that no Idle
// start condition reads or that is not a finite non-negative gap.
func (c Cell) validate() error {
	// An Exec cell without a Variant would share a standard cell's key; a
	// Variant cell without an Exec has nothing to run it.
	if (c.Exec != nil) != (c.Variant != "") {
		return fmt.Errorf("runner: cell %s: Exec must be set exactly when Variant is", c.Label())
	}
	if c.Mode > Idle || c.warmupMode() > Idle {
		return cfgerr.New("runner: cell %s: unknown start condition", c.Label())
	}
	if !(c.IdleMs >= 0) || math.IsInf(c.IdleMs, 1) {
		return cfgerr.New("runner: cell %s: IdleMs %v is not a finite gap >= 0", c.Label(), c.IdleMs)
	}
	//lukewarm:floateq any set gap, however small, is one nothing reads
	if c.IdleMs != 0 && c.Mode != Idle && c.warmupMode() != Idle {
		return cfgerr.New("runner: cell %s: IdleMs %v set, but neither the window nor the warm-up is Idle", c.Label(), c.IdleMs)
	}
	return nil
}

// Label names the cell in progress lines and telemetry: the workload, the
// mechanism or variant, and the start conditions unless they are the plain
// lukewarm ones of a mechanism cell, so cells that differ only in their
// start conditions are labelled apart.
func (c Cell) Label() string {
	tag := ""
	switch {
	case c.Variant != "":
		tag = c.Variant
	case c.Reap != nil && c.Jukebox != nil:
		tag = "reap+jukebox"
	case c.Reap != nil:
		tag = "reap"
	case c.Jukebox != nil:
		tag = "jukebox"
	case c.Perfect:
		tag = "perfect"
	}
	switch start := c.start(); {
	case tag == "":
		tag = start
	case start != Lukewarm.String():
		tag += "/" + start
	}
	return c.Workload + "/" + tag
}

// Key returns the cell's content address: an FNV-1a hash over a canonical
// rendering of every field that influences the measurement, plus the schema
// version. Configurations are flat value structs, so their fmt rendering is
// canonical; any config change — a cache size, a Jukebox budget, a penalty
// cycle — lands the cell at a different address. The warm-up's start
// condition is rendered resolved, so a WarmupMode equal to Mode keys like
// nil.
func (c Cell) Key() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "schema=%d|wl=%s|cpu=%+v|perfect=%t|mode=%d|warmmode=%d|idle=%v|warm=%d|meas=%d|audit=%t|variant=%s",
		SchemaVersion, c.Workload, c.CPU, c.Perfect, c.Mode, c.warmupMode(), c.IdleMs, c.Warmup, c.Measure, c.Audit, c.Variant)
	if c.Jukebox != nil {
		fmt.Fprintf(h, "|jb=%+v", *c.Jukebox)
	} else {
		fmt.Fprintf(h, "|jb=nil")
	}
	if c.Reap != nil {
		fmt.Fprintf(h, "|reap=%+v", *c.Reap)
	} else {
		fmt.Fprintf(h, "|reap=nil")
	}
	return h.Sum64()
}

// Measurement aggregates one cell's measurement window. It is the unit of
// caching: every field is a plain exported value, so it round-trips through
// gob unchanged.
type Measurement struct {
	Stack  topdown.Stack
	Instrs uint64
	Cycles mem.Cycle
	L1I    mem.CacheStats
	L2     mem.CacheStats
	LLC    mem.CacheStats
	DRAM   map[mem.TrafficClass]uint64 // bytes by class
	JB     core.Stats
	// Reap holds the instance's REAP recorder/restorer counters; zero for
	// cells without a Reap configuration.
	Reap reap.Stats
	// FirstInvCycles is the first measured invocation's cycle count — the
	// start latency a client observes.
	FirstInvCycles mem.Cycle
	// MetaBytes is the per-instance metadata cost a comparator prefetcher's
	// executor reports (RECAP); zero for other cells, whose Jukebox cost is
	// in JB.
	MetaBytes int
	// Traffic holds a whole-server traffic simulation's result for cells
	// whose custom executor runs ServeTraffic instead of a per-instance
	// measurement window (the traffic experiments); nil for standard cells.
	Traffic *serverless.TrafficResult
	// Cluster holds a fleet simulation's summary for cells whose custom
	// executor runs cluster.Run (the cluster experiment); nil otherwise.
	Cluster *cluster.Summary
	// FootprintKB and Jaccard summarize a footprint cell's per-invocation
	// instruction footprints and their pairwise commonality (Fig. 6).
	FootprintKB, Jaccard stats.Summary
	// Outcome and Detail are a chaos cell's verdict and its explanation.
	Outcome, Detail string
}

// CPI reports the window's cycles per instruction.
func (m Measurement) CPI() float64 {
	if m.Instrs == 0 {
		return 0
	}
	return float64(m.Cycles) / float64(m.Instrs)
}

// MPKI reports misses per kilo-instruction from a cache's counters.
func (m Measurement) MPKI(s mem.CacheStats, k mem.Kind) float64 {
	if m.Instrs == 0 {
		return 0
	}
	return float64(s.DemandMisses[k]) / float64(m.Instrs) * 1000
}

// Execute runs one standard cell from scratch: a fresh single-purpose server,
// one deployed instance, warmup then measurement. It is the executor
// Engine.Measure runs for cells without an Exec.
func Execute(c Cell) (Measurement, error) {
	w, err := workload.ByName(c.Workload)
	if err != nil {
		return Measurement{}, err
	}
	srv := serverless.New(serverless.Config{CPU: c.CPU, Jukebox: c.Jukebox, Reap: c.Reap, PerfectICache: c.Perfect})
	defer srv.Release()
	return MeasureInstance(srv, srv.Deploy(w), c)
}

// MeasureInstance runs c's warm-up then c's measured invocations of inst on
// srv, each after its start condition, and returns the aggregated
// measurement window. Custom executors use it after their own server setup;
// it reads c's start conditions, counts and Audit, not its platform. With
// Audit set, every measured invocation and the window's counters are
// checked against the faults package's conservation invariants.
func MeasureInstance(srv *serverless.Server, inst *serverless.Instance, c Cell) (Measurement, error) {
	invoke := func(md Mode) cpu.RunResult {
		switch md {
		case Lukewarm:
			srv.FlushMicroarch()
		case Cold:
			inst.Evict()
			srv.FlushMicroarch()
		case Idle:
			srv.AdvanceIAT(c.IdleMs)
		}
		return srv.Invoke(inst)
	}
	warm := c.warmupMode()
	for i := 0; i < c.Warmup; i++ {
		invoke(warm)
	}
	beginWindow(srv, inst)

	var out Measurement
	for i := 0; i < c.Measure; i++ {
		res := invoke(c.Mode)
		if c.Audit {
			if err := faults.Audit(res); err != nil {
				return out, fmt.Errorf("%s invocation %d: %w", inst.Workload.Name, i, err)
			}
		}
		if i == 0 {
			out.FirstInvCycles = res.Cycles
		}
		out.Stack.Merge(res.Stack)
		out.Instrs += res.Instrs
		out.Cycles += res.Cycles
	}
	err := endWindow(srv, inst, &out, c.Audit, c.Mode == Lukewarm || c.Mode == Cold)
	return out, err
}

// beginWindow opens a measurement window: it zeroes every counter the
// window reports, on srv's core and on inst's mechanisms.
func beginWindow(srv *serverless.Server, inst *serverless.Instance) {
	srv.Core.Hier.ResetStats()
	srv.Core.MMU.ResetStats()
	srv.Core.BP.ResetStats()
	srv.Core.BTB.ResetStats()
	if inst.Jukebox != nil {
		inst.Jukebox.ResetStats()
	}
	if inst.Reap != nil {
		inst.Reap.ResetStats()
	}
}

// endWindow closes a window opened by beginWindow whose invocations the
// caller merged into out: it drains unused prefetches and copies the cache,
// DRAM, Jukebox and REAP counters into out. With audit set it checks the
// Jukebox and REAP ledgers, and — when flushed reports that every measured
// invocation started from flushed caches — the cache counters' conservation
// too; windows that start warm legitimately carry pre-reset prefetched lines
// across the stats reset.
func endWindow(srv *serverless.Server, inst *serverless.Instance, out *Measurement, audit, flushed bool) error {
	hier := srv.Core.Hier
	hier.DrainUnusedPrefetches()
	out.L1I = hier.L1I.Stats
	out.L2 = hier.L2.Stats
	out.LLC = hier.LLC.Stats
	out.DRAM = map[mem.TrafficClass]uint64{}
	for _, cls := range []mem.TrafficClass{mem.TrafficDemand, mem.TrafficPrefetch,
		mem.TrafficMetadataRecord, mem.TrafficMetadataReplay, mem.TrafficWriteback} {
		out.DRAM[cls] = hier.DRAM.Bytes(cls)
	}
	if inst.Jukebox != nil {
		out.JB = inst.Jukebox.Stats
	}
	if inst.Reap != nil {
		out.Reap = inst.Reap.Stats
	}
	if !audit {
		return nil
	}
	if inst.Jukebox != nil {
		if err := faults.AuditJukebox(out.JB); err != nil {
			return fmt.Errorf("%s: %w", inst.Workload.Name, err)
		}
	}
	if inst.Reap != nil {
		if err := faults.AuditReap(out.Reap); err != nil {
			return fmt.Errorf("%s: %w", inst.Workload.Name, err)
		}
	}
	if flushed {
		for _, c := range []struct {
			name  string
			stats mem.CacheStats
		}{{"L1I", out.L1I}, {"L2", out.L2}, {"LLC", out.LLC}} {
			if err := faults.AuditCache(c.name, c.stats); err != nil {
				return fmt.Errorf("%s: %w", inst.Workload.Name, err)
			}
		}
	}
	return nil
}
