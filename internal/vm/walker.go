package vm

import (
	"lukewarm/internal/cfgerr"
	"lukewarm/internal/mem"
)

// WalkerConfig describes the hardware page-table walker cost model.
type WalkerConfig struct {
	// BaseLatency is charged for every walk (pipeline + cached PTE levels).
	BaseLatency mem.Cycle
	// CacheEntries sizes the walker's PTE-line cache: leaf PTE cache lines
	// recently read by walks. A walk whose leaf PTE line is resident costs
	// BaseLatency; otherwise it also pays a memory access.
	CacheEntries int
}

// DefaultWalkerConfig models a radix-4 walker whose upper levels are almost
// always cached: ~25 cycles when the leaf PTE line is on chip, plus a DRAM
// access when it is not.
func DefaultWalkerConfig() WalkerConfig {
	return WalkerConfig{BaseLatency: 25, CacheEntries: 64}
}

// Validate reports whether the cost model is realizable: no negative
// latency or cache size (zero fields select defaults in NewWalker). Errors
// wrap cfgerr.ErrBadConfig.
func (c WalkerConfig) Validate() error {
	if c.BaseLatency < 0 || c.CacheEntries < 0 {
		return cfgerr.New("walker: negative parameters (latency %d, entries %d)",
			c.BaseLatency, c.CacheEntries)
	}
	return nil
}

// Walker is the hardware page-table walker. PTE lines hold 8 PTEs (64 B /
// 8 B), so vpage>>3 identifies the leaf PTE line for a page.
type Walker struct {
	cfg   WalkerConfig
	dram  *mem.DRAM
	cache []uint64 // FIFO of resident PTE-line ids
	pos   int
	// Walks and ColdWalks count total walks and walks that went to memory.
	Walks     uint64
	ColdWalks uint64
}

// NewWalker builds a walker issuing cold PTE reads to dram. Zero config
// fields fall back to defaults.
func NewWalker(cfg WalkerConfig, dram *mem.DRAM) *Walker {
	def := DefaultWalkerConfig()
	if cfg.BaseLatency == 0 {
		cfg.BaseLatency = def.BaseLatency
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = def.CacheEntries
	}
	w := &Walker{cfg: cfg, dram: dram, cache: make([]uint64, cfg.CacheEntries)}
	for i := range w.cache {
		w.cache[i] = ^uint64(0)
	}
	return w
}

// WalkKind classifies the page walk a translation needed.
type WalkKind uint8

const (
	// WalkNone: the TLB hit, no walk.
	WalkNone WalkKind = iota
	// WalkWarm: the leaf PTE line was in the walker cache.
	WalkWarm
	// WalkCold: the leaf PTE line had to be read from memory.
	WalkCold
)

// Walk performs one page walk for vpage at time now and returns its latency.
// It is Lookup followed by Latency; the core's pipeline calls the two halves
// at different times (see Lookup).
func (w *Walker) Walk(now mem.Cycle, vpage uint64) mem.Cycle {
	return w.Latency(now, w.Lookup(vpage))
}

// Lookup is the time-independent half of a walk: it probes and fills the
// walker's PTE-line cache, counts the walk, and reports whether it is warm or
// cold. Nothing in it depends on the clock, so the core runs it ahead of
// execution and charges the walk later with Latency.
//
//lukewarm:hotpath noalloc,noescape one walker-cache probe per TLB miss, run ahead of execution
func (w *Walker) Lookup(vpage uint64) WalkKind {
	w.Walks++
	pteLine := vpage >> 3
	for _, id := range w.cache {
		if id == pteLine {
			return WalkWarm
		}
	}
	w.ColdWalks++
	w.cache[w.pos] = pteLine
	w.pos = (w.pos + 1) % len(w.cache)
	return WalkCold
}

// Latency is the time-dependent half of a walk of kind k at time now: the
// base latency, plus the leaf PTE read from DRAM for a cold walk. A TLB hit
// (WalkNone) costs nothing.
func (w *Walker) Latency(now mem.Cycle, k WalkKind) mem.Cycle {
	switch k {
	case WalkNone:
		return 0
	case WalkWarm:
		return w.cfg.BaseLatency
	}
	return w.cfg.BaseLatency + w.dram.Access(now, mem.TrafficDemand)
}

// Flush empties the walker's PTE-line cache (microarchitectural flush).
func (w *Walker) Flush() {
	for i := range w.cache {
		w.cache[i] = ^uint64(0)
	}
}

// MMUConfig bundles TLB and walker configurations for one core.
type MMUConfig struct {
	ITLB, DTLB TLBConfig
	Walker     WalkerConfig
}

// Validate checks both TLB geometries and the walker cost model. Errors
// wrap cfgerr.ErrBadConfig.
func (c MMUConfig) Validate() error {
	if err := c.ITLB.Validate(); err != nil {
		return err
	}
	if err := c.DTLB.Validate(); err != nil {
		return err
	}
	return c.Walker.Validate()
}

// DefaultMMUConfig models a 128-entry ITLB and a 64-entry DTLB.
func DefaultMMUConfig() MMUConfig {
	return MMUConfig{
		ITLB:   TLBConfig{Name: "ITLB", Sets: 16, Ways: 8},
		DTLB:   TLBConfig{Name: "DTLB", Sets: 16, Ways: 4},
		Walker: DefaultWalkerConfig(),
	}
}

// MMU performs instruction- and data-side address translation for one core
// executing one address space at a time.
type MMU struct {
	ITLB, DTLB *TLB
	Walker     *Walker
	as         *AddressSpace
}

// NewMMU builds an MMU; dram services cold page walks.
func NewMMU(cfg MMUConfig, dram *mem.DRAM) *MMU {
	return &MMU{
		ITLB:   NewTLB(cfg.ITLB),
		DTLB:   NewTLB(cfg.DTLB),
		Walker: NewWalker(cfg.Walker, dram),
	}
}

// SetAddressSpace switches the MMU to translate as (process switch). The
// caller decides whether to flush the TLBs; tagged TLBs survive switches,
// untagged ones do not.
func (m *MMU) SetAddressSpace(as *AddressSpace) { m.as = as }

// AddressSpace returns the active address space.
func (m *MMU) AddressSpace() *AddressSpace { return m.as }

// TranslateInstr translates an instruction-side virtual address, charging
// TLB-miss page walks. It panics if no address space is active — running
// code without a process is a harness bug, not a runtime condition.
func (m *MMU) TranslateInstr(now mem.Cycle, vaddr uint64) (paddr uint64, lat mem.Cycle) {
	return m.translate(now, vaddr, m.ITLB)
}

// TranslateData translates a data-side virtual address.
func (m *MMU) TranslateData(now mem.Cycle, vaddr uint64) (paddr uint64, lat mem.Cycle) {
	return m.translate(now, vaddr, m.DTLB)
}

func (m *MMU) translate(now mem.Cycle, vaddr uint64, tlb *TLB) (uint64, mem.Cycle) {
	paddr, k := m.resolve(vaddr, tlb)
	return paddr, m.Walker.Latency(now, k)
}

// ResolveInstr is the time-independent half of TranslateInstr: the ITLB
// lookup, the walker-cache lookup on a miss, and demand frame allocation. It
// returns the physical address and the kind of walk, which the caller charges
// later with Walker.Latency. TranslateInstr(now, v) is exactly
// ResolveInstr(v) followed by Walker.Latency(now, kind).
func (m *MMU) ResolveInstr(vaddr uint64) (paddr uint64, k WalkKind) {
	return m.resolve(vaddr, m.ITLB)
}

// ResolveData is ResolveInstr for the data side (DTLB).
func (m *MMU) ResolveData(vaddr uint64) (paddr uint64, k WalkKind) {
	return m.resolve(vaddr, m.DTLB)
}

// resolve touches only the TLB, the walker cache and the address space —
// never the clock or DRAM — so it may run ahead of execution on another
// goroutine while nothing else touches those three structures.
func (m *MMU) resolve(vaddr uint64, tlb *TLB) (uint64, WalkKind) {
	if m.as == nil {
		panic("vm: MMU has no active address space")
	}
	vp := PageOf(vaddr)
	k := WalkNone
	if !tlb.Access(vp) {
		k = m.Walker.Lookup(vp)
	}
	return m.as.Translate(vaddr), k
}

// Flush invalidates both TLBs and the walker cache.
func (m *MMU) Flush() {
	m.ITLB.Flush()
	m.DTLB.Flush()
	m.Walker.Flush()
}

// ResetStats zeroes TLB counters and walker counts, keeping contents.
func (m *MMU) ResetStats() {
	m.ITLB.ResetStats()
	m.DTLB.ResetStats()
	m.Walker.Walks = 0
	m.Walker.ColdWalks = 0
}
