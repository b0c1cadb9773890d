// Package serverless models the host side of the paper's setting: a cloud
// server keeping many warm function instances memory-resident, scheduling
// their invocations onto a core, and — crucially — the interleaving between
// invocations of a given instance that obliterates its microarchitectural
// state (Sec. 2.2).
//
// Three execution regimes are provided, matching the paper's methodology:
//
//   - Reference: back-to-back invocations of the same instance on the same
//     core with nothing disturbed — the fully warm lower bound (Sec. 2.3).
//   - Lukewarm: all microarchitectural state flushed between invocations —
//     exactly how the paper's simulated interleaving baseline is modeled
//     ("flushing all microarchitectural state in-between function
//     invocations", Sec. 5.2).
//   - Partial: an inter-arrival-time (IAT) dependent partial thrash, used
//     for the Fig. 1 IAT sweep: during the idle gap, co-resident instances
//     stream foreign state through the shared structures; each structure
//     loses 1-exp(-bytes/capacity) of its contents.
package serverless

import (
	"math"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/mem"
	"lukewarm/internal/predict"
	"lukewarm/internal/program"
	"lukewarm/internal/reap"
	"lukewarm/internal/vm"
	"lukewarm/internal/workload"
)

// Config describes a server.
type Config struct {
	// CPU selects the platform (cpu.SkylakeConfig() by default).
	CPU cpu.Config
	// Cores is the number of cores (default 1). Cores have private L1s,
	// L2, branch state and TLBs; they share the LLC and the memory
	// controller, like the paper's 10-core host.
	Cores int
	// Jukebox, when non-nil, deploys every instance with its own Jukebox
	// using this configuration.
	Jukebox *core.Config
	// Reap, when non-nil, deploys every instance with a REAP working-set
	// recorder/restorer (internal/reap) using this configuration. It
	// composes with Jukebox and core prefetchers: REAP restores pages
	// into the LLC and TLBs, Jukebox replays instruction regions into the
	// L2.
	Reap *reap.Config
	// PerfectICache services all instruction fetches at L1 latency
	// (the Fig. 10 upper bound).
	PerfectICache bool
}

// DefaultThrashBytesPerMs is the Fig. 1 interleaving intensity: the volume
// of foreign microarchitectural state streamed through the core and caches
// per millisecond of idle time at the ambient server load (Fig. 1 runs at
// ~50% CPU load). 96 KB/ms puts the CPI knee at tens of milliseconds and
// saturation near one second on the characterization host, as in Fig. 1.
const DefaultThrashBytesPerMs = 96 << 10

// Instance is one warm, memory-resident function instance: its address
// space, its Jukebox metadata (if enabled), and its invocation counter.
type Instance struct {
	Workload workload.Workload
	AS       *vm.AddressSpace
	// Jukebox is the instance's prefetcher state, nil when disabled.
	Jukebox *core.Jukebox
	// Reap is the instance's working-set recorder/restorer, nil when
	// disabled. Its sealed manifest conceptually lives with the snapshot,
	// not the instance's memory, so it survives Evict.
	Reap *reap.Reap
	// Invocations counts invocations served.
	Invocations uint64
	srv         *Server
	// stream is the instance's pooled walker and its walked-ahead records,
	// reused per dispatch so the steady state of a warm instance allocates
	// nothing.
	stream program.Stream
}

// Server is one simulated host with its co-resident instances. Core points
// at core 0 for the common single-core workflows; Cores holds all of them.
type Server struct {
	Core      *cpu.Core
	Cores     []*cpu.Core
	Alloc     *vm.FrameAllocator
	cfg       Config
	instances []*Instance
	thrashRNG *program.RNG
	lastAS    []*vm.AddressSpace
	corePFs   []cpu.InstrPrefetcher
	// pfScratch is per-core reusable storage for the composed prefetcher
	// list a dispatch installs; per-core because each core retains its
	// current composition in Core.Prefetcher between dispatches.
	pfScratch []cpu.MultiPrefetcher
	// ahead is the budget of records the instances' short streams are
	// walked ahead into.
	ahead program.WalkAhead
}

// AttachCorePrefetcher installs a core-level instruction prefetcher (e.g.
// PIF) on core 0; it composes with per-instance Jukeboxes via
// cpu.MultiPrefetcher. Build the prefetcher against srv.Core.Hier.
func (s *Server) AttachCorePrefetcher(pf cpu.InstrPrefetcher) { s.corePFs[0] = pf }

// withDefaults fills zero-valued config fields.
func (cfg Config) withDefaults() Config {
	if cfg.CPU.DispatchWidth == 0 {
		cfg.CPU = cpu.SkylakeConfig()
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	return cfg
}

// Validate checks the (defaulted) configuration: the platform, its cache and
// TLB geometry, and the Jukebox parameters if one is attached. Errors wrap
// cfgerr.ErrBadConfig.
func (cfg Config) Validate() error {
	cfg = cfg.withDefaults()
	if err := cfg.CPU.Validate(); err != nil {
		return err
	}
	if cfg.Jukebox != nil {
		if err := cfg.Jukebox.Validate(); err != nil {
			return err
		}
	}
	if cfg.Reap != nil {
		if err := cfg.Reap.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// NewErr builds a server like New but returns a validation error (wrapping
// cfgerr.ErrBadConfig) instead of panicking on bad configuration.
func NewErr(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return New(cfg), nil
}

// New builds a server. Zero-valued config fields get defaults. It panics on
// invalid configuration; use NewErr when the config comes from user input.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	llc := mem.NewCache(cfg.CPU.Hier.LLC)
	dram := mem.NewDRAM(cfg.CPU.Hier.DRAM)
	s := &Server{
		Alloc:     vm.NewFrameAllocator(0),
		cfg:       cfg,
		thrashRNG: program.NewRNG(0x7A4A5),
		lastAS:    make([]*vm.AddressSpace, cfg.Cores),
		corePFs:   make([]cpu.InstrPrefetcher, cfg.Cores),
		pfScratch: make([]cpu.MultiPrefetcher, cfg.Cores),
	}
	for i := 0; i < cfg.Cores; i++ {
		hier := mem.NewSharedHierarchy(cfg.CPU.Hier, llc, dram)
		hier.PerfectL1I = cfg.PerfectICache
		s.Cores = append(s.Cores, cpu.NewCoreWithHierarchy(cfg.CPU, hier))
	}
	s.Core = s.Cores[0]
	return s
}

// Release hands the server's simulated-hardware storage — every core's
// branch tables and private cache levels, and the shared LLC once — to the
// next server built (mem.FreeList). The server must not run again: a
// released cache or branch table panics on its next access. Counters stay
// readable, and a second Release does nothing. Whoever builds a server for
// one run releases it when the run is done.
func (s *Server) Release() {
	for _, c := range s.Cores {
		c.Release()
		c.Hier.Release()
	}
	s.Core.Hier.LLC.Release()
}

// NumCores reports the core count.
func (s *Server) NumCores() int { return len(s.Cores) }

// Deploy creates a warm instance of w on the server.
func (s *Server) Deploy(w workload.Workload) *Instance {
	inst := &Instance{Workload: w, AS: vm.NewAddressSpace(s.Alloc), srv: s}
	if s.cfg.Jukebox != nil {
		inst.Jukebox = core.New(*s.cfg.Jukebox, s.Core.Hier, s.Core.MMU, s.Alloc)
	}
	if s.cfg.Reap != nil {
		inst.Reap = reap.New(*s.cfg.Reap, s.Core.Hier, s.Core.MMU)
	}
	s.instances = append(s.instances, inst)
	return inst
}

// Instances lists the deployed instances in deployment order.
func (s *Server) Instances() []*Instance { return s.instances }

// Evict models the OS reclaiming the instance's memory mid-lifetime: the
// address space is replaced by a fresh one (all pages gone) and any Jukebox
// metadata — in-flight recording and sealed replay state — is discarded,
// since it lives in the instance's (reclaimed) memory. A REAP manifest, by
// contrast, is part of the snapshot's record file and survives: the next
// invocation is a cold start microarchitecturally but can still restore its
// working set from the manifest — exactly the asymmetry the coldstart
// comparator measures.
func (inst *Instance) Evict() {
	inst.AS = vm.NewAddressSpace(inst.srv.Alloc)
	if inst.Jukebox != nil {
		inst.Jukebox.DropMetadata()
	}
	if inst.Reap != nil {
		inst.Reap.Abandon()
	}
}

// DropManifest discards the instance's REAP manifest along with the rest of
// its state — the crash path for a host that did not ship its record files.
func (inst *Instance) DropManifest() {
	if inst.Reap != nil {
		inst.Reap.DropManifest()
	}
}

// Invoke schedules one invocation of inst on core 0 and runs it to
// completion.
func (s *Server) Invoke(inst *Instance) cpu.RunResult { return s.InvokeOn(0, inst) }

// InvokeOn schedules one invocation of inst on core idx. The OS work is
// modeled faithfully: the process's address space is installed (flushing
// untagged TLBs on a process switch), and the scheduler programs the
// Jukebox base/limit registers of the chosen core from the instance's
// bookkeeping (Sec. 3.4.1) — metadata lives in memory, so the instance can
// run on any core.
//
//lukewarm:hotpath noalloc the fleet multiplies every dispatch by millions of invocations; the OS model must not allocate
func (s *Server) InvokeOn(idx int, inst *Instance) cpu.RunResult {
	c := s.Cores[idx]
	if s.lastAS[idx] != inst.AS {
		c.MMU.SetAddressSpace(inst.AS)
		c.MMU.Flush()
		s.lastAS[idx] = inst.AS
	}
	// Compose the present warm-up mechanisms in restore order: REAP's bulk
	// page restore first (LLC + TLBs), then Jukebox's region replay (L2),
	// then any core-level prefetcher. The per-core scratch grows to the
	// mechanism count (<=3) once, then is reused.
	multi := s.pfScratch[idx][:0]
	if inst.Reap != nil {
		inst.Reap.Bind(c.Hier, c.MMU)
		multi = append(multi, inst.Reap)
	}
	if inst.Jukebox != nil {
		inst.Jukebox.Bind(c.Hier, c.MMU)
		multi = append(multi, inst.Jukebox)
	}
	if s.corePFs[idx] != nil {
		multi = append(multi, s.corePFs[idx])
	}
	s.pfScratch[idx] = multi
	switch len(multi) {
	case 0:
		c.Prefetcher = nil
	case 1:
		c.Prefetcher = multi[0]
	default:
		// Hand the core a pointer to the per-core scratch slot: assigning
		// the slice value itself would box it into the interface and heap-
		// allocate on every composed dispatch.
		c.Prefetcher = &s.pfScratch[idx]
	}
	inst.stream.Start(&s.ahead, inst.Workload.Program, inst.Invocations)
	inst.Invocations++
	r := c.RunInvocation(&inst.stream)
	inst.stream.Finish()
	return r
}

// PrewarmOutcome reports what a predictive pre-warm pass installed.
type PrewarmOutcome struct {
	// Ran reports that at least one mechanism actually issued its replay
	// (sealed state existed and verified).
	Ran bool
	// Bytes is the prefetch volume the pre-warm streamed on chip.
	Bytes uint64
	// BusyCycles is how long the replay engines stayed busy issuing.
	BusyCycles mem.Cycle
}

// PrewarmOn pre-runs inst's warm-up mechanisms on core idx while the
// instance is idle, ahead of its predicted next arrival: the OS schedules
// the idle instance's restore onto the core exactly as a dispatch would
// (address-space install, register programming), the selected mechanisms
// replay immediately, and a latch makes the instance's next InvocationStart
// skip its replay phase — the invocation starts microarchitecturally warm.
// The replay engines run in the background of the idle core, so the core
// clock does not advance; the occupancy is reported in BusyCycles and
// charged to the predict ledger instead.
func (s *Server) PrewarmOn(idx int, inst *Instance, mech predict.Mech) PrewarmOutcome {
	c := s.Cores[idx]
	if s.lastAS[idx] != inst.AS {
		c.MMU.SetAddressSpace(inst.AS)
		c.MMU.Flush()
		s.lastAS[idx] = inst.AS
	}
	var out PrewarmOutcome
	now := c.Now()
	if inst.Reap != nil && mech != predict.MechJukebox {
		inst.Reap.Bind(c.Hier, c.MMU)
		before := inst.Reap.Stats.PrefetchedBytes
		if inst.Reap.BeginPrewarm(now) {
			out.Ran = true
			out.Bytes += inst.Reap.Stats.PrefetchedBytes - before
			if d := inst.Reap.Stats.LastRestoreDone; d > now {
				out.BusyCycles += d - now
			}
		}
	}
	if inst.Jukebox != nil && mech != predict.MechReap {
		inst.Jukebox.Bind(c.Hier, c.MMU)
		before := inst.Jukebox.Stats.ReplayPrefetches
		if inst.Jukebox.BeginPrewarm(now) {
			out.Ran = true
			out.Bytes += (inst.Jukebox.Stats.ReplayPrefetches - before) * mem.LineSize
			if d := inst.Jukebox.Stats.LastReplayDone; d > now {
				out.BusyCycles += d - now
			}
		}
	}
	return out
}

// FlushMicroarch obliterates all on-chip state on every core (the lukewarm
// baseline's inter-invocation interleaving).
func (s *Server) FlushMicroarch() {
	for i, c := range s.Cores {
		c.FlushMicroarch() // includes the shared LLC; idempotent
		s.lastAS[i] = nil
	}
}

// AdvanceIAT models an idle inter-arrival gap of ms milliseconds on core 0:
// the clock advances and co-resident instances partially thrash every
// structure in proportion to the foreign state streamed through it
// (Sec. 2.2's interleaving).
func (s *Server) AdvanceIAT(ms float64) { s.AdvanceIATOn(0, ms) }

// AdvanceIATOn is AdvanceIAT for core idx. The core's private structures
// and the shared LLC thrash; other cores' private state is untouched (their
// own gaps handle it).
func (s *Server) AdvanceIATOn(idx int, ms float64) {
	if ms <= 0 {
		return
	}
	c := s.Cores[idx]
	// ms * 1e-3 s * freq GHz * 1e9 cycles/s = ms * freq * 1e6 cycles.
	// float64(...) rounds the product, so no architecture fuses it into the unsigned conversion (make fmagate).
	c.AdvanceCycles(mem.Cycle(float64(ms * s.cfg.CPU.FreqGHz * 1e6)))

	bytes := ms * float64(DefaultThrashBytesPerMs)
	rng := s.thrashRNG.Uint64
	frac := func(capacityBytes int) float64 {
		return 1 - math.Exp(-bytes/float64(capacityBytes))
	}
	hier := c.Hier
	cfg := hier.Config()
	hier.L1I.EvictFraction(frac(cfg.L1I.SizeBytes), rng)
	hier.L1D.EvictFraction(frac(cfg.L1D.SizeBytes), rng)
	hier.L2.EvictFraction(frac(cfg.L2.SizeBytes), rng)
	hier.LLC.EvictFraction(frac(cfg.LLC.SizeBytes), rng)

	// Core-side structures: sized in equivalent foreign-state bytes. The
	// BTB holds ~8K entries trained by foreign taken branches (~1 per 64 B
	// of foreign code); TLBs hold translations for foreign pages.
	c.BTB.EvictFraction(frac(512<<10), rng)
	c.BP.DecayFraction(frac(256<<10), rng)
	c.MMU.ITLB.EvictFraction(frac(512<<10), rng)
	c.MMU.DTLB.EvictFraction(frac(256<<10), rng)
	if bytes > 256<<10 {
		c.MMU.Walker.Flush()
	}
}

// RunReference performs n back-to-back invocations of inst (the paper's
// reference configuration) and returns the result of the last one, which is
// fully warm.
func (s *Server) RunReference(inst *Instance, n int) cpu.RunResult {
	var last cpu.RunResult
	for i := 0; i < n; i++ {
		last = s.Invoke(inst)
	}
	return last
}

// RunLukewarm performs n invocations of inst with a full microarchitectural
// flush before each (the paper's interleaved/baseline configuration) and
// returns the last result.
func (s *Server) RunLukewarm(inst *Instance, n int) cpu.RunResult {
	var last cpu.RunResult
	for i := 0; i < n; i++ {
		s.FlushMicroarch()
		last = s.Invoke(inst)
	}
	return last
}

// RunWithIAT performs n invocations of inst separated by idle gaps of
// iatMs milliseconds (the Fig. 1 sweep) and returns the last result.
func (s *Server) RunWithIAT(inst *Instance, n int, iatMs float64) cpu.RunResult {
	var last cpu.RunResult
	for i := 0; i < n; i++ {
		s.AdvanceIAT(iatMs)
		last = s.Invoke(inst)
	}
	return last
}
