package runner

import (
	"fmt"
	"hash/fnv"

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
const SchemaVersion = 7

// Mode selects the execution regime of a measurement cell.
type Mode uint8

// The paper's two regimes (Sec. 2.3).
const (
	// Reference: back-to-back invocations, fully warm.
	Reference Mode = iota
	// Lukewarm: full microarchitectural flush before every invocation — the
	// interleaved/baseline configuration.
	Lukewarm
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Reference {
		return "ref"
	}
	return "lukewarm"
}

// Cell describes one independent simulation: which workload runs on which
// platform under which regime, and how much of it is measured. Cells are
// pure values — the executor builds a fresh server from the content, so two
// cells with equal content always produce equal measurements. That property
// is what makes them content-addressable; the content is every field but
// Exec.
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
	// Mode is the execution regime.
	Mode Mode
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

// Label names the cell in progress lines and telemetry.
func (c Cell) Label() string {
	tag := c.Mode.String()
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
	return c.Workload + "/" + tag
}

// Key returns the cell's content address: an FNV-1a hash over a canonical
// rendering of every field that influences the measurement, plus the schema
// version. Configurations are flat value structs, so their fmt rendering is
// canonical; any config change — a cache size, a Jukebox budget, a penalty
// cycle — lands the cell at a different address.
func (c Cell) Key() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "schema=%d|wl=%s|cpu=%+v|perfect=%t|mode=%d|warm=%d|meas=%d|audit=%t|variant=%s",
		SchemaVersion, c.Workload, c.CPU, c.Perfect, c.Mode, c.Warmup, c.Measure, c.Audit, c.Variant)
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
	// start latency a custom executor chose to surface (the coldstart
	// comparator); zero for standard cells.
	FirstInvCycles mem.Cycle
	// MetaBytes is the per-instance metadata cost a custom executor chose to
	// report (comparator prefetchers); zero for standard cells, whose
	// Jukebox cost is in JB.
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
	inst := srv.Deploy(w)
	return MeasureInstance(srv, inst, c.Mode, c.Warmup, c.Measure, c.Audit)
}

// MeasureInstance runs warmup then measure invocations of inst under md on
// srv and returns the aggregated measurement window. Custom executors use it
// after their own server setup. With audit set, every measured invocation
// and the window's counters are checked against the faults package's
// conservation invariants.
func MeasureInstance(srv *serverless.Server, inst *serverless.Instance, md Mode, warmup, measure int, audit bool) (Measurement, error) {
	invoke := func() cpu.RunResult {
		if md == Lukewarm {
			srv.FlushMicroarch()
		}
		return srv.Invoke(inst)
	}
	for i := 0; i < warmup; i++ {
		invoke()
	}
	BeginWindow(srv, inst)

	var out Measurement
	for i := 0; i < measure; i++ {
		res := invoke()
		if audit {
			if err := faults.Audit(res); err != nil {
				return out, fmt.Errorf("%s invocation %d: %w", inst.Workload.Name, i, err)
			}
		}
		out.Stack.Merge(res.Stack)
		out.Instrs += res.Instrs
		out.Cycles += res.Cycles
	}
	err := EndWindow(srv, inst, &out, audit, md == Lukewarm)
	return out, err
}

// BeginWindow opens a measurement window: it zeroes every counter the
// window reports, on srv's core and on inst's mechanisms.
func BeginWindow(srv *serverless.Server, inst *serverless.Instance) {
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

// EndWindow closes a window opened by BeginWindow whose invocations the
// caller merged into out: it drains unused prefetches and copies the cache,
// DRAM, Jukebox and REAP counters into out. With audit set it checks the
// Jukebox and REAP ledgers, and — when flushed reports that every measured
// invocation started from flushed caches — the cache counters' conservation
// too; windows that start warm legitimately carry pre-reset prefetched lines
// across the stats reset.
func EndWindow(srv *serverless.Server, inst *serverless.Instance, out *Measurement, audit, flushed bool) error {
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
