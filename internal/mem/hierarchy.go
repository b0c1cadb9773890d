package mem

// HierarchyConfig assembles the per-level cache configurations of one
// simulated platform. Table 1 of the paper defines the Skylake-like setup;
// Sec. 5.6 the Broadwell-like one.
type HierarchyConfig struct {
	L1I, L1D, L2, LLC Config
	DRAM              DRAMConfig
	// L1DNextLine enables the next-line prefetcher on the L1-D (Table 1).
	L1DNextLine bool
}

// Validate checks every level's geometry. Errors wrap cfgerr.ErrBadConfig.
func (c HierarchyConfig) Validate() error {
	for _, lvl := range []Config{c.L1I, c.L1D, c.L2, c.LLC} {
		if err := lvl.Validate(); err != nil {
			return err
		}
	}
	return c.DRAM.Validate()
}

// SkylakeHierarchy returns the Table 1 configuration: 32 KB L1-I/L1-D,
// 1 MB private L2, 8 MB shared LLC.
func SkylakeHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1I:         Config{Name: "L1I", SizeBytes: 32 << 10, Ways: 8, HitLatency: 4, MSHRs: 10},
		L1D:         Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, HitLatency: 12, MSHRs: 10},
		L2:          Config{Name: "L2", SizeBytes: 1 << 20, Ways: 8, HitLatency: 36, MSHRs: 32},
		LLC:         Config{Name: "LLC", SizeBytes: 8 << 20, Ways: 16, HitLatency: 36, MSHRs: 32},
		DRAM:        DefaultDRAMConfig(),
		L1DNextLine: true,
	}
}

// BroadwellHierarchy returns the Sec. 5.6 configuration, which also matches
// the real-hardware host of the characterization study: 32 KB L1s, 256 KB
// L2, 8 MB LLC slice. The smaller L2 has a shorter hit latency.
func BroadwellHierarchy() HierarchyConfig {
	h := SkylakeHierarchy()
	h.L2 = Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, HitLatency: 12, MSHRs: 20}
	// Broadwell's ring-bus LLC is slower than Skylake's mesh slice.
	h.LLC.HitLatency = 42
	return h
}

// CharacterizationHierarchy returns the CloudLab xl170 host of Sec. 4.1:
// Broadwell with a 25 MB LLC (within power-of-two set constraints we use
// 16 MB, the closest realizable size; reference working sets still fit).
func CharacterizationHierarchy() HierarchyConfig {
	h := BroadwellHierarchy()
	h.LLC = Config{Name: "LLC", SizeBytes: 16 << 20, Ways: 16, HitLatency: 36, MSHRs: 32}
	return h
}

// pfBufEntry is one line in the instruction prefetch buffer.
type pfBufEntry struct {
	addr  uint64
	ready Cycle
	valid bool
}

// PFBufStats counts instruction-prefetch-buffer activity.
type PFBufStats struct {
	Fills          uint64
	Hits           uint64
	EvictionUnused uint64
}

// Hierarchy wires the caches and DRAM together and implements the demand
// and prefetch access paths.
type Hierarchy struct {
	L1I, L1D, L2, LLC *Cache
	DRAM              *DRAM
	cfg               HierarchyConfig
	lastDataBlock     uint64
	// Per-level hit latencies and the in-flight-prefetch wait cap, hoisted
	// out of the Config structs at construction so the demand path reads
	// them from the Hierarchy itself.
	l1iLat, l1dLat, l2Lat, llcLat Cycle
	maxWait                       Cycle
	// PerfectL1I services every instruction fetch at L1 hit latency,
	// modeling the paper's "Perfect I-cache" upper bound (Sec. 5.2).
	PerfectL1I bool

	// pfBuf is a small fully-associative FIFO instruction prefetch buffer
	// probed in parallel with the L1-I, used by stream prefetchers (PIF) to
	// avoid polluting the L1-I with speculative lines. Sized by
	// EnablePrefetchBuffer.
	pfBuf    []pfBufEntry
	pfBufPos int
	PFBuf    PFBufStats
}

// NewHierarchy builds a hierarchy from cfg with its own LLC and DRAM.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return NewSharedHierarchy(cfg, NewCache(cfg.LLC), NewDRAM(cfg.DRAM))
}

// NewSharedHierarchy builds the private levels of one core around a shared
// LLC and memory controller — the multi-core organization of the paper's
// host (private L1s and L2, shared LLC, one memory system).
func NewSharedHierarchy(cfg HierarchyConfig, llc *Cache, dram *DRAM) *Hierarchy {
	return &Hierarchy{
		L1I:     NewCache(cfg.L1I),
		L1D:     NewCache(cfg.L1D),
		L2:      NewCache(cfg.L2),
		LLC:     llc,
		DRAM:    dram,
		cfg:     cfg,
		l1iLat:  cfg.L1I.HitLatency,
		l1dLat:  cfg.L1D.HitLatency,
		l2Lat:   cfg.L2.HitLatency,
		llcLat:  cfg.LLC.HitLatency,
		maxWait: cfg.L2.HitLatency + cfg.LLC.HitLatency + dram.Config().AccessLatency,
	}
}

// FlushPrivate invalidates only the core-private levels (L1s, L2, prefetch
// buffer), leaving the shared LLC to the server-level policy.
func (h *Hierarchy) FlushPrivate() {
	h.L1I.Flush()
	h.L1D.Flush()
	h.L2.Flush()
	h.FlushPrefetchBuffer()
	h.lastDataBlock = 0
}

// Config returns the hierarchy configuration in effect.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// FetchInstr performs a demand instruction fetch of the block containing
// paddr at time now.
//lukewarm:hotpath noalloc,noescape every simulated fetch block enters the hierarchy here
func (h *Hierarchy) FetchInstr(now Cycle, paddr uint64) Result {
	if h.PerfectL1I {
		return Result{Latency: h.l1iLat, Level: LevelL1}
	}
	l1 := h.L1I
	s, i := l1.lookup(paddr)
	if i < 0 {
		return h.missL1(now, paddr, Instr, false, l1, s, h.l1iLat)
	}
	wait, _ := l1.hit(now, s, i, Instr, false)
	return Result{Latency: h.l1iLat + min(wait, h.maxWait), Level: LevelL1}
}

// AccessData performs a demand data access at time now. write marks stores.
//lukewarm:hotpath noalloc,noescape every simulated load and store enters the hierarchy here; the L1 hit and the same-block prefetch check stay inline
func (h *Hierarchy) AccessData(now Cycle, paddr uint64, write bool) Result {
	l1 := h.L1D
	s, i := l1.lookup(paddr)
	var res Result
	if i < 0 {
		res = h.missL1(now, paddr, Data, write, l1, s, h.l1dLat)
	} else {
		// The L1 hit path: hit's steps, with touch and use inlined, so only
		// a prefetched line's first use costs a call.
		if w := i - s*l1.ways; l1.packed {
			l1.touch(s, w)
		} else {
			l1.stamp(s, w)
		}
		var wait Cycle
		if f := l1.use(i, Data, write); unusedPrefetch(f) != 0 {
			wait = l1.firstUse(now, i, f)
		}
		res = Result{Latency: h.l1dLat + min(wait, h.maxWait), Level: LevelL1}
	}
	if blk := BlockAddr(paddr); h.cfg.L1DNextLine && blk != h.lastDataBlock {
		h.nextLinePrefetch(now, blk)
	}
	return res
}

// missL1 serves a demand access that missed l1, whose lookup returned set
// s1, from the outer levels: lat is the L1 hit latency already paid. A
// demand hit on a still-in-flight prefetch waits for the data, but never
// longer than the rest of the miss path it replaced (the demand would
// otherwise have fetched the line itself): the cap shrinks by the hit
// latencies already paid at each level.
//lukewarm:hotpath noalloc,noescape every L1 miss walks the outer levels here, one tag scan per level
func (h *Hierarchy) missL1(now Cycle, paddr uint64, k Kind, write bool, l1 *Cache, s1 int, lat Cycle) Result {
	l1.miss(k)
	maxWait := h.maxWait

	// L1-I misses probe the prefetch buffer in parallel with the L2; the
	// buffer serves the demand only when it is the faster source (an
	// L2-resident copy whose data arrives sooner wins otherwise).
	if k == Instr && len(h.pfBuf) > 0 {
		if wait, hit := h.pfBufTake(now, paddr); hit {
			l2Wait, l2Present := h.L2.probeWait(now, paddr)
			if !l2Present || wait <= l2Wait+h.l2Lat {
				h.PFBuf.Hits++
				l1.install(s1, paddr, demandFlags(k), 0)
				return Result{Latency: lat + 2 + min(wait, maxWait), Level: LevelL1}
			}
		}
	}

	// L1 miss: look up the unified L2. The refill into the L1 discards its
	// victim and does not mark a store's line dirty (DESIGN.md §4).
	s2, i2 := h.L2.lookup(paddr)
	if i2 >= 0 {
		wait, pf := h.L2.hit(now+lat, s2, i2, k, false)
		total := lat + h.l2Lat + min(wait, maxWait-h.l2Lat)
		l1.install(s1, paddr, demandFlags(k), 0)
		return Result{Latency: total, Level: LevelL2, L2PrefetchHit: pf}
	}
	h.L2.miss(k)
	lat += h.l2Lat

	// L2 miss: look up the shared LLC.
	s3, i3 := h.LLC.lookup(paddr)
	if i3 >= 0 {
		wait, _ := h.LLC.hit(now+lat, s3, i3, k, false)
		total := lat + h.llcLat + min(wait, maxWait-h.l2Lat-h.llcLat)
		h.fillOnPath(now, paddr, k, write, l1, s1, s2)
		return Result{Latency: total, Level: LevelLLC, L2Miss: true}
	}
	h.LLC.miss(k)
	lat += h.llcLat

	// LLC miss: go to memory.
	lat += h.DRAM.Access(now+lat, TrafficDemand)
	if v := h.LLC.install(s3, paddr, demandFlags(k), 0); v.valid && v.dirty {
		h.DRAM.Access(now, TrafficWriteback)
	}
	h.fillOnPath(now, paddr, k, write, l1, s1, s2)
	return Result{Latency: lat, Level: LevelMem, L2Miss: true}
}

// fillOnPath installs the block into the L2 and the L1 at the sets their
// lookups returned, accounting for dirty writebacks reaching memory from
// LLC evictions.
//lukewarm:hotpath noalloc,noescape every L2 miss refills the path here; victims must stay on the stack
func (h *Hierarchy) fillOnPath(now Cycle, paddr uint64, k Kind, write bool, l1 *Cache, s1, s2 int) {
	if v := h.L2.install(s2, paddr, demandFlags(k), 0); v.valid && v.dirty {
		// Dirty L2 victims merge into the LLC; if absent there, install and
		// carry the dirty bit so the data eventually writes back to memory.
		if lv := h.LLC.mergeDirty(v.addr, v.kind); lv.valid && lv.dirty {
			h.DRAM.Access(now, TrafficWriteback)
		}
	}
	nf := demandFlags(k)
	if write {
		nf |= lineDirty
	}
	// A dirty L1 victim merges into the L2; the L2 line that merge
	// displaces is discarded.
	if v := l1.install(s1, paddr, nf, 0); v.valid && v.dirty {
		h.L2.mergeDirty(v.addr, v.kind)
	}
}

// nextLinePrefetch implements the simple L1-D next-line prefetcher from
// Table 1: on a demand access to a new block blk, pull in the sequentially
// next block if it is not already in the L1-D.
//lukewarm:hotpath noalloc,noescape runs on every data access that changes block
func (h *Hierarchy) nextLinePrefetch(now Cycle, blk uint64) {
	h.lastDataBlock = blk
	next := blk + LineSize
	s1, i1 := h.L1D.lookup(next)
	if i1 >= 0 {
		return
	}
	ready := h.prefetchOuter(now, now+h.l1dLat, next, Data, TrafficPrefetch)
	h.L1D.install(s1, next, prefetchFlags(Data), ready)
}

// prefetchOuter brings the block at paddr to the L2 for a prefetch into a
// level above it, installing it as a prefetched line of kind k in the L2
// (and the LLC) where missing, and returns the cycle its data arrives
// above the L2: ready plus the latency of the level that has it. The DRAM
// traffic is labelled cls; displaced lines are discarded.
//lukewarm:hotpath noalloc,noescape the shared outer half of the next-line, PIF and buffer prefetch paths
func (h *Hierarchy) prefetchOuter(now, ready Cycle, paddr uint64, k Kind, cls TrafficClass) Cycle {
	s2, i2 := h.L2.lookup(paddr)
	if i2 >= 0 {
		return ready + h.l2Lat
	}
	s3, i3 := h.LLC.lookup(paddr)
	if i3 >= 0 {
		ready += h.l2Lat + h.llcLat
	} else {
		ready += h.l2Lat + h.llcLat + h.DRAM.Access(now, cls)
		h.LLC.install(s3, paddr, prefetchFlags(k), ready)
	}
	h.L2.install(s2, paddr, prefetchFlags(k), ready)
	return ready
}

// PrefetchIntoL2 installs the block containing paddr into the L2 (and LLC on
// the way) on behalf of an instruction prefetcher, returning the cycle at
// which the data is available in the L2. cls labels the DRAM traffic.
// If the block is already L2-resident the call is a no-op returning now.
//lukewarm:hotpath noalloc,noescape Jukebox replay issues one call per recorded block
func (h *Hierarchy) PrefetchIntoL2(now Cycle, paddr uint64, cls TrafficClass) Cycle {
	s2, i2 := h.L2.lookup(paddr)
	if i2 >= 0 {
		return now
	}
	ready := now + h.llcLat
	s3, i3 := h.LLC.lookup(paddr)
	if i3 < 0 {
		ready += h.DRAM.Access(now, cls)
		h.LLC.install(s3, paddr, prefetchFlags(Instr), ready)
	}
	h.L2.install(s2, paddr, prefetchFlags(Instr), ready)
	return ready
}

// EnablePrefetchBuffer sizes the instruction prefetch buffer (n lines);
// n <= 0 disables it.
func (h *Hierarchy) EnablePrefetchBuffer(n int) {
	if n <= 0 {
		h.pfBuf = nil
		return
	}
	h.pfBuf = make([]pfBufEntry, n)
	h.pfBufPos = 0
}

// pfBufTake removes paddr's block from the prefetch buffer if present,
// returning the residual wait for in-flight data.
func (h *Hierarchy) pfBufTake(now Cycle, paddr uint64) (wait Cycle, hit bool) {
	blk := BlockAddr(paddr)
	for i := range h.pfBuf {
		e := &h.pfBuf[i]
		if e.valid && e.addr == blk {
			e.valid = false
			if e.ready > now {
				wait = e.ready - now
			}
			return wait, true
		}
	}
	return 0, false
}

// PrefetchIntoBuffer stages the block containing paddr in the instruction
// prefetch buffer (stream-prefetcher target), filling L2/LLC on the way as
// the data passes through. A FIFO victim that was never used counts as an
// overprediction. Returns the ready cycle; a no-op if the block is already
// in the L1-I or the buffer.
func (h *Hierarchy) PrefetchIntoBuffer(now Cycle, paddr uint64, cls TrafficClass) Cycle {
	if len(h.pfBuf) == 0 {
		return h.PrefetchIntoL1I(now, paddr, cls)
	}
	blk := BlockAddr(paddr)
	if h.L1I.Probe(blk) {
		return now
	}
	for i := range h.pfBuf {
		if h.pfBuf[i].valid && h.pfBuf[i].addr == blk {
			return h.pfBuf[i].ready
		}
	}
	ready := h.prefetchOuter(now, now, blk, Instr, cls)
	v := &h.pfBuf[h.pfBufPos]
	if v.valid {
		h.PFBuf.EvictionUnused++
	}
	*v = pfBufEntry{addr: blk, ready: ready, valid: true}
	h.pfBufPos = (h.pfBufPos + 1) % len(h.pfBuf)
	h.PFBuf.Fills++
	return ready
}

// FlushPrefetchBuffer invalidates the buffer, counting unused entries as
// overpredicted.
func (h *Hierarchy) FlushPrefetchBuffer() {
	for i := range h.pfBuf {
		if h.pfBuf[i].valid {
			h.PFBuf.EvictionUnused++
			h.pfBuf[i].valid = false
		}
	}
}

// PrefetchIntoLLC installs the block containing paddr into the LLC only,
// the target of whole-cache context-restoration schemes (RECAP-style).
// Returns the ready cycle; a no-op when already LLC-resident.
func (h *Hierarchy) PrefetchIntoLLC(now Cycle, paddr uint64, cls TrafficClass) Cycle {
	return h.PrefetchLineIntoLLC(now, paddr, Data, cls)
}

// PrefetchLineIntoLLC is PrefetchIntoLLC with an explicit line kind, so
// page-granular restore engines (internal/reap) can install instruction
// pages as Instr lines and keep the per-kind cache stats honest. Returns
// now unchanged when the line is already LLC-resident — the probe is what
// makes restore a delta on lukewarm starts.
func (h *Hierarchy) PrefetchLineIntoLLC(now Cycle, paddr uint64, k Kind, cls TrafficClass) Cycle {
	s, i := h.LLC.lookup(paddr)
	if i >= 0 {
		return now
	}
	ready := now + h.DRAM.Access(now, cls)
	h.LLC.install(s, paddr, prefetchFlags(k), ready)
	return ready
}

// PrefetchLineIntoLLCBlind is PrefetchLineIntoLLC without the residency
// probe: a software restore engine (REAP) streams recorded pages from the
// snapshot regardless of what is already cache-resident, so every line
// occupies prefetch bandwidth even when redundant — redundant transfers
// push the useful installs' ready times later, which is exactly the
// restore's lukewarm-start penalty. A redundant fill refreshes the resident
// line without resetting its readiness.
func (h *Hierarchy) PrefetchLineIntoLLCBlind(now Cycle, paddr uint64, k Kind, cls TrafficClass) Cycle {
	ready := now + h.DRAM.Access(now, cls)
	h.LLC.fill(now, paddr, k, true, ready)
	return ready
}

// PrefetchIntoL1I installs the block containing paddr into the L1-I (used by
// the PIF comparator, which targets the L1-I). Returns the ready cycle.
func (h *Hierarchy) PrefetchIntoL1I(now Cycle, paddr uint64, cls TrafficClass) Cycle {
	s1, i1 := h.L1I.lookup(paddr)
	if i1 >= 0 {
		return now
	}
	ready := h.prefetchOuter(now, now, paddr, Instr, cls)
	h.L1I.install(s1, paddr, prefetchFlags(Instr), ready)
	return ready
}

// FlushAll invalidates every cache, modeling total obliteration of on-chip
// state between invocations (the paper's simulated interleaving baseline).
func (h *Hierarchy) FlushAll() {
	h.L1I.Flush()
	h.L1D.Flush()
	h.L2.Flush()
	h.LLC.Flush()
	h.FlushPrefetchBuffer()
	h.lastDataBlock = 0
}

// ThrashFraction partially evicts every cache, modeling a bounded amount of
// interleaved foreign execution (Fig. 1's sub-saturation IATs). frac is the
// per-line eviction probability; rng supplies deterministic randomness.
func (h *Hierarchy) ThrashFraction(frac float64, rng func() uint64) {
	h.L1I.EvictFraction(frac, rng)
	h.L1D.EvictFraction(frac, rng)
	h.L2.EvictFraction(frac, rng)
	h.LLC.EvictFraction(frac, rng)
}

// ResetStats zeroes all counters without disturbing cache contents.
func (h *Hierarchy) ResetStats() {
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
	h.LLC.ResetStats()
	h.DRAM.ResetStats()
	h.PFBuf = PFBufStats{}
}

// DrainUnusedPrefetches finalizes overprediction accounting in the prefetch
// target caches at the end of a measurement window.
func (h *Hierarchy) DrainUnusedPrefetches() {
	h.L1I.DrainUnusedPrefetches()
	h.L2.DrainUnusedPrefetches()
	h.LLC.DrainUnusedPrefetches()
}
