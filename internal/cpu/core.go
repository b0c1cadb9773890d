package cpu

import (
	"lukewarm/internal/mem"
	"lukewarm/internal/program"
	"lukewarm/internal/topdown"
	"lukewarm/internal/vm"
)

// InstrSource supplies the dynamic instruction stream of one invocation.
// *program.Invocation implements it; so does a trace reader (package
// trace), which lets the core replay externally captured streams.
type InstrSource interface {
	Next() (program.Instr, bool)
}

// batchSource is the bulk-delivery fast path: sources that implement it
// (program.Invocation) hand stage 1 whole buffers of instructions, so the
// walk pays no per-instruction interface call. NextBatch must yield exactly
// the stream repeated Next calls would — the differential tests in
// internal/check hold the two paths bit-identical.
type batchSource interface {
	NextBatch(buf []program.Instr) int
}

// tdAcc accumulates Top-Down cycles as integers during a run; RunInvocation
// converts to the float Stack once at the end. Every charge is a
// non-negative integer and invocation totals stay far below 2^53, so
// float64 addition of the charges is exact and the one-shot conversion is
// bit-identical to the previous per-charge Stack.Add calls.
type tdAcc [topdown.NumCategories]mem.Cycle

// InstrPrefetcher is the hook surface for instruction prefetchers (Jukebox
// in package core, PIF in package pif). A nil prefetcher is valid.
type InstrPrefetcher interface {
	// InvocationStart fires when the OS schedules the instance to process a
	// new invocation — Jukebox's replay trigger (Sec. 3.3).
	InvocationStart(now mem.Cycle)
	// InvocationEnd fires when the invocation completes and the process is
	// descheduled — record metadata is sealed here (Sec. 3.4.1).
	InvocationEnd(now mem.Cycle)
	// OnFetch fires after every demand instruction-block fetch with the
	// hierarchy's result; res.L2Miss drives Jukebox's record filter. Both
	// the virtual and physical addresses of the fetch are provided:
	// Jukebox records virtual addresses, PIF's physically-indexed
	// structures use physical ones.
	OnFetch(now mem.Cycle, vaddr, paddr uint64, res mem.Result)
	// OnBlockRetire fires once per executed code block in program order —
	// the retired-instruction stream PIF records.
	OnBlockRetire(now mem.Cycle, vBlock, pBlock uint64)
}

// DataObserver is an optional extension of InstrPrefetcher: a prefetcher
// that also implements it sees the retired data-access stream (loads and
// stores). Page-granular working-set recorders (internal/reap) need both
// sides — instruction pages arrive via OnFetch, data pages via
// OnDataAccess. The hook fires after the access completes, so observers
// must not charge latency from it.
type DataObserver interface {
	OnDataAccess(now mem.Cycle, vaddr, paddr uint64, store bool)
}

// RunResult summarizes one invocation's execution.
type RunResult struct {
	Instrs uint64
	Cycles mem.Cycle
	Stack  topdown.Stack
	// Mispredicts and Resteers are the branch events in this run.
	Mispredicts uint64
	Resteers    uint64
}

// CPI reports cycles per instruction.
func (r RunResult) CPI() float64 {
	if r.Instrs == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instrs)
}

// Core is one simulated CPU core plus its private memory system.
type Core struct {
	Cfg  Config
	Hier *mem.Hierarchy
	MMU  *vm.MMU
	BP   *BranchPredictor
	BTB  *BTB
	// Prefetcher receives the hook calls; nil disables prefetching.
	Prefetcher InstrPrefetcher
	// dataObs lists the Prefetcher's data observers, resolved once per
	// invocation (a MultiPrefetcher is flattened into its members), so a
	// load or store pays no type assertion; the slice is reused.
	dataObs []DataObserver

	now mem.Cycle

	// retireAcc accumulates sub-cycle retiring quanta.
	retireAcc int
	// instruction-miss overlap state
	lastIMissInstr uint64
	// data-miss overlap state
	lastDMissInstr uint64
	dBurstCount    int
	instrCount     uint64
}

// NewCore builds a core from cfg with its own full memory hierarchy. The
// caller attaches address spaces via core.MMU.SetAddressSpace before
// running.
func NewCore(cfg Config) *Core {
	cfg.validate()
	return NewCoreWithHierarchy(cfg, mem.NewHierarchy(cfg.Hier))
}

// NewCoreWithHierarchy builds a core around an externally constructed
// hierarchy — used by multi-core servers whose cores share an LLC and
// memory controller (mem.NewSharedHierarchy).
func NewCoreWithHierarchy(cfg Config, hier *mem.Hierarchy) *Core {
	cfg.validate()
	return &Core{
		Cfg:  cfg,
		Hier: hier,
		MMU:  vm.NewMMU(cfg.MMU, hier.DRAM),
		BP:   NewBranchPredictor(cfg.BP),
		BTB:  NewBTB(cfg.BP.BTBEntries),
	}
}

// Now reports the core's current cycle.
func (c *Core) Now() mem.Cycle { return c.now }

// AdvanceCycles moves the clock forward without executing (idle time between
// invocations).
func (c *Core) AdvanceCycles(n mem.Cycle) { c.now += n }

// FlushMicroarch obliterates all on-core and cache state: the paper's
// simulated interleaving baseline "flushes all microarchitectural state
// in-between function invocations".
func (c *Core) FlushMicroarch() {
	c.Hier.FlushAll()
	c.MMU.Flush()
	c.BP.Flush()
	c.BTB.Flush()
	c.lastIMissInstr = 0
	c.lastDMissInstr = 0
	c.dBurstCount = 0
}

// RunInvocation executes one invocation stream to completion and returns its
// timing decomposition. The prefetcher hooks fire at the boundaries. A panic
// raised while walking or translating the stream — including on the stage-1
// goroutine — reaches the caller with its original value.
func (c *Core) RunInvocation(inv InstrSource) RunResult {
	var acc tdAcc
	m := c.begin()
	n := c.run(inv, &acc)
	return c.end(m, &acc, n)
}

// runMark is the core state RunInvocation's result is measured against.
type runMark struct {
	start                 mem.Cycle
	mispredicts, resteers uint64
}

// begin opens an invocation: it marks the counters and fires
// InvocationStart, the last point before stage 1 owns the MMU.
func (c *Core) begin() runMark {
	m := runMark{start: c.now, mispredicts: c.BP.Stats.Mispredicts, resteers: c.BTB.Stats.Resteers}
	c.dataObs = appendDataObservers(c.dataObs[:0], c.Prefetcher)
	if c.Prefetcher != nil {
		c.Prefetcher.InvocationStart(c.now)
	}
	return m
}

// appendDataObservers appends p's data observers to dst in hook order:
// a MultiPrefetcher contributes its members' observers, flattened, and any
// other prefetcher itself if it observes data.
func appendDataObservers(dst []DataObserver, p InstrPrefetcher) []DataObserver {
	switch p := p.(type) {
	case MultiPrefetcher:
		for _, m := range p {
			dst = appendDataObservers(dst, m)
		}
	case *MultiPrefetcher:
		for _, m := range *p {
			dst = appendDataObservers(dst, m)
		}
	case DataObserver:
		dst = append(dst, p)
	}
	return dst
}

// end closes an invocation of instrs instructions: it fires InvocationEnd
// and builds the result.
func (c *Core) end(m runMark, acc *tdAcc, instrs uint64) RunResult {
	if c.Prefetcher != nil {
		c.Prefetcher.InvocationEnd(c.now)
	}
	res := RunResult{Instrs: instrs, Cycles: c.now - m.start}
	for cat, cyc := range acc {
		res.Stack.Cycles[cat] = float64(cyc)
	}
	res.Stack.AddInstrs(instrs)
	res.Mispredicts = c.BP.Stats.Mispredicts - m.mispredicts
	res.Resteers = c.BTB.Stats.Resteers - m.resteers
	return res
}

// exec is stage 2 for one dynamic instruction; x is stage 1's translation
// of it.
//lukewarm:hotpath noalloc,noescape,nobce the per-instruction timing step; everything the simulator measures flows through it
func (c *Core) exec(in *program.Instr, x *xlat, acc *tdAcc) {
	c.instrCount++

	// Retiring quantum: one cycle per DispatchWidth instructions.
	c.retireAcc++
	if c.retireAcc >= c.Cfg.DispatchWidth {
		c.retireAcc = 0
		c.now++
		acc[topdown.Retiring]++
	}

	// Front end: new fetch block?
	if x.newBlock {
		c.fetchBlock(in.VAddr, x, acc)
	}

	switch in.Op {
	case program.OpLoad:
		c.load(in, x, acc)
	case program.OpStore:
		c.store(in, x, acc)
	case program.OpBranch:
		c.branch(in, acc)
	}
}

// fetchBlock performs the instruction-side access for a new fetch block:
// the ITLB walk's latency, L1-I access, miss-latency exposure with
// fetch-engine overlap, and prefetcher notification.
//lukewarm:hotpath noalloc,noescape the batched front-end step, once per 64 B fetch block
func (c *Core) fetchBlock(vaddr uint64, x *xlat, acc *tdAcc) {
	cfg := &c.Cfg
	paddr := x.fetchPA
	if x.iwalk != vm.WalkNone {
		// ITLB miss: the walk serializes instruction delivery.
		w := c.MMU.Walker.Latency(c.now, x.iwalk) / 2 // PTE reads partially overlap fetch-ahead
		c.now += w
		acc[topdown.FetchLatency] += w
	}

	fres := c.Hier.FetchInstr(c.now, paddr)
	if c.Prefetcher != nil {
		c.Prefetcher.OnFetch(c.now, vaddr, paddr, fres)
		c.Prefetcher.OnBlockRetire(c.now, vaddr&^(mem.LineSize-1), paddr&^(mem.LineSize-1))
	}
	miss := fres.Latency - cfg.Hier.L1I.HitLatency
	if miss <= 0 {
		return
	}
	// Instruction miss: the first FetchHide cycles disappear into the
	// decode/fetch-target queues; the remainder is exposed, with
	// fetch-engine overlap when the previous instruction miss was close by.
	if miss <= cfg.FetchHide {
		c.lastIMissInstr = c.instrCount
		return
	}
	exposed := miss - cfg.FetchHide
	if c.instrCount-c.lastIMissInstr <= uint64(cfg.FetchMLPWindow) {
		exposed = exposed / mem.Cycle(cfg.FetchMLP)
		if exposed == 0 {
			exposed = 1
		}
	}
	c.lastIMissInstr = c.instrCount
	c.now += exposed
	acc[topdown.FetchLatency] += exposed
	// Decoder undersupply while the fetch queue refills after the miss: a
	// small bandwidth-class cost that scales with the exposed latency, plus
	// the fixed restart bubble.
	fb := exposed/16 + cfg.MissDecodeBubble
	if fb > 0 {
		c.now += fb
		acc[topdown.FetchBandwidth] += fb
	}
}

// load performs the data-side access for a load and charges exposed miss
// latency to Backend Bound under the MLP model.
//lukewarm:hotpath noalloc,noescape,nobce roughly a third of dynamic instructions are loads
func (c *Core) load(in *program.Instr, x *xlat, acc *tdAcc) {
	cfg := &c.Cfg
	paddr := x.dataPA
	if x.dwalk != vm.WalkNone {
		w := c.MMU.Walker.Latency(c.now, x.dwalk) / 2
		c.now += w
		acc[topdown.BackendBound] += w
	}
	res := c.Hier.AccessData(c.now, paddr, false)
	for _, o := range c.dataObs {
		o.OnDataAccess(c.now, in.MemAddr, paddr, false)
	}
	miss := res.Latency - cfg.Hier.L1D.HitLatency
	if miss <= 0 {
		return
	}
	// Independent misses within the ROB window overlap by DataMLP, but only
	// while L1-D MSHRs remain: a burst longer than the MSHR count stalls
	// and restarts (Table 1: 10 MSHRs).
	exposed := miss
	overlapped := !in.DepLoad &&
		c.instrCount-c.lastDMissInstr <= uint64(cfg.ROBSize) &&
		c.dBurstCount < cfg.Hier.L1D.MSHRs
	if overlapped {
		c.dBurstCount++
		exposed = miss / mem.Cycle(cfg.DataMLP)
		if exposed == 0 {
			exposed = 1
		}
	} else {
		c.dBurstCount = 1
	}
	c.lastDMissInstr = c.instrCount
	c.now += exposed
	acc[topdown.BackendBound] += exposed
}

// store retires through the store buffer: it consumes cache/DRAM bandwidth
// but does not stall the pipeline.
//lukewarm:hotpath noalloc,noescape,nobce store retirement shares the data path's zero-alloc requirement
func (c *Core) store(in *program.Instr, x *xlat, acc *tdAcc) {
	paddr := x.dataPA
	if x.dwalk != vm.WalkNone {
		w := c.MMU.Walker.Latency(c.now, x.dwalk) / 2
		c.now += w
		acc[topdown.BackendBound] += w
	}
	c.Hier.AccessData(c.now, paddr, true)
	for _, o := range c.dataObs {
		o.OnDataAccess(c.now, in.MemAddr, paddr, true)
	}
}

// branch resolves a control transfer: direction prediction for
// conditionals, BTB target check for taken branches.
//lukewarm:hotpath noalloc,noescape one control transfer per generated code line
func (c *Core) branch(in *program.Instr, acc *tdAcc) {
	cfg := &c.Cfg
	if in.Cond {
		if correct := c.BP.Update(in.VAddr, in.Taken); !correct {
			c.now += cfg.MispredictPenalty
			acc[topdown.BadSpeculation] += cfg.MispredictPenalty
		}
	}
	if !in.Taken {
		return
	}
	// Taken branch: fetch-block break.
	if cfg.TakenBranchBubble > 0 {
		c.now += cfg.TakenBranchBubble
		acc[topdown.FetchBandwidth] += cfg.TakenBranchBubble
	}
	// Indirect branches never have a stable BTB target; model them as a
	// fresh target each time (interpreter dispatch).
	target := in.Target
	if in.Indirect {
		target = in.Target ^ (c.instrCount << 32) // unique per occurrence
	}
	if hit := c.BTB.LookupAndUpdate(in.VAddr, target); !hit {
		c.now += cfg.ResteerPenalty
		acc[topdown.FetchLatency] += cfg.ResteerPenalty
	}
}
