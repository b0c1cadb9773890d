package check

import (
	"fmt"

	"lukewarm/internal/cpu"
	"lukewarm/internal/faults"
	"lukewarm/internal/mem"
	"lukewarm/internal/program"
	"lukewarm/internal/topdown"
	"lukewarm/internal/vm"
	"lukewarm/internal/workload"
)

// The differential oracles: for each structure under test, a reference model
// small and simple enough to be obviously correct is driven with the same
// stream and compared access-by-access. The references deliberately use the
// most naive data structures that express the policy (recency-ordered
// slices, maps, FIFO slices) — no ticks, no packed arrays — so a bug in the
// optimized implementation cannot be mirrored here.

// refLRU is a reference set-associative LRU cache over opaque keys: each set
// is a recency-ordered slice, MRU last. With sets == 1 it is the
// fully-associative LRU cache of the textbook definition.
type refLRU struct {
	ways int
	sets [][]uint64
}

func newRefLRU(sets, ways int) *refLRU {
	return &refLRU{ways: ways, sets: make([][]uint64, sets)}
}

// access looks key up in its set, reporting a hit; either way key ends up
// MRU, evicting the set's LRU element when the set overflows.
func (c *refLRU) access(key uint64) bool {
	si := int(key) & (len(c.sets) - 1)
	s := c.sets[si]
	for i, k := range s {
		if k == key {
			c.sets[si] = append(append(s[:i:i], s[i+1:]...), key)
			return true
		}
	}
	s = append(s, key)
	if len(s) > c.ways {
		s = s[1:]
	}
	c.sets[si] = s
	return false
}

// resident reports the number of cached keys.
func (c *refLRU) resident() int {
	n := 0
	for _, s := range c.sets {
		n += len(s)
	}
	return n
}

// checkCacheOracle drives a mem.Cache and the reference LRU with the same
// demand stream and compares every outcome plus the final counters.
func checkCacheOracle(cfg mem.Config, stream []access) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	dut := mem.NewCache(cfg)
	ref := newRefLRU(cfg.Sets(), cfg.Ways)
	var hits, misses uint64
	for i, a := range stream {
		k := mem.Data
		if !a.write && i%3 == 0 {
			k = mem.Instr // exercise both traffic kinds
		}
		got := dut.DemandAccess(mem.Cycle(i), a.addr, k, a.write)
		want := ref.access(a.addr >> mem.LineShift)
		if got != want {
			return fmt.Errorf("cache %s: access %d addr %#x: hit=%v, reference says %v",
				cfg.Name, i, a.addr, got, want)
		}
		if want {
			hits++
		} else {
			misses++
		}
	}
	s := dut.Stats
	var accD, hitD, missD uint64
	for k := 0; k < 2; k++ {
		accD += s.DemandAccesses[k]
		hitD += s.DemandHits[k]
		missD += s.DemandMisses[k]
	}
	switch {
	case accD != uint64(len(stream)):
		return fmt.Errorf("cache %s: counted %d demand accesses, drove %d", cfg.Name, accD, len(stream))
	case hitD != hits || missD != misses:
		return fmt.Errorf("cache %s: counters say %d hits / %d misses, reference says %d / %d",
			cfg.Name, hitD, missD, hits, misses)
	case dut.CountValid() != ref.resident():
		return fmt.Errorf("cache %s: %d resident lines, reference says %d",
			cfg.Name, dut.CountValid(), ref.resident())
	}
	return nil
}

// checkRecycledCacheOracle runs checkCacheOracle on a cache built on
// recycled arrays: a cache of cfg first serves dirty (its writes leave dirty
// lines, its wide sets LRU stamps) and is released, and the oracle's cache
// must reuse its arrays and still match the reference access by access.
func checkRecycledCacheOracle(cfg mem.Config, dirty, stream []access) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	old := mem.NewCache(cfg)
	for i, a := range dirty {
		old.DemandAccess(mem.Cycle(i), a.addr, mem.Data, a.write)
	}
	old.Release()
	n, _ := mem.Retained()
	if err := checkCacheOracle(cfg, stream); err != nil {
		return err
	}
	if m, _ := mem.Retained(); m != n-1 {
		return fmt.Errorf("cache %s: the oracle's cache did not reuse the released arrays", cfg.Name)
	}
	return nil
}

// refBTB is a reference direct-mapped branch target buffer: a map from slot
// index to the (pc, target) pair last installed there.
type refBTB struct {
	entries int
	slots   map[int]branchEvent
}

func (b *refBTB) lookupAndUpdate(pc, target uint64) bool {
	i := int(pc>>2) & (b.entries - 1)
	prev, ok := b.slots[i]
	b.slots[i] = branchEvent{pc: pc, target: target}
	return ok && prev.pc == pc && prev.target == target
}

// checkBTBOracle drives a cpu.BTB and the reference map with the same
// taken-branch stream.
func checkBTBOracle(entries int, stream []branchEvent) error {
	dut := cpu.NewBTB(entries)
	ref := &refBTB{entries: entries, slots: map[int]branchEvent{}}
	var resteers uint64
	for i, b := range stream {
		got := dut.LookupAndUpdate(b.pc, b.target)
		want := ref.lookupAndUpdate(b.pc, b.target)
		if got != want {
			return fmt.Errorf("BTB/%d: branch %d pc=%#x target=%#x: hit=%v, reference says %v",
				entries, i, b.pc, b.target, got, want)
		}
		if !want {
			resteers++
		}
	}
	if dut.Stats.Lookups != uint64(len(stream)) || dut.Stats.Resteers != resteers {
		return fmt.Errorf("BTB/%d: counters say %d lookups / %d resteers, reference says %d / %d",
			entries, dut.Stats.Lookups, dut.Stats.Resteers, uint64(len(stream)), resteers)
	}
	return nil
}

// refFIFO is a reference bounded FIFO set (the walker's PTE-line cache
// policy): membership plus insertion order, oldest evicted first.
type refFIFO struct {
	cap  int
	keys []uint64
}

func (f *refFIFO) accessed(key uint64) bool {
	for _, k := range f.keys {
		if k == key {
			return true
		}
	}
	f.keys = append(f.keys, key)
	if len(f.keys) > f.cap {
		f.keys = f.keys[1:]
	}
	return false
}

// checkTLBOracle drives the two-level translation path — vm.TLB lookup, then
// vm.Walker page walk on a miss — against a reference LRU TLB plus FIFO
// PTE-line set, on the same virtual-page stream.
func checkTLBOracle(cfg vm.TLBConfig, wcfg vm.WalkerConfig, vpages []uint64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	dutTLB := vm.NewTLB(cfg)
	dutWalker := vm.NewWalker(wcfg, mem.NewDRAM(mem.DefaultDRAMConfig()))
	refTLB := newRefLRU(cfg.Sets, cfg.Ways)
	refPTE := &refFIFO{cap: wcfg.CacheEntries}
	var misses, cold uint64
	now := mem.Cycle(0)
	for i, vp := range vpages {
		gotHit := dutTLB.Access(vp)
		wantHit := refTLB.access(vp)
		if gotHit != wantHit {
			return fmt.Errorf("TLB %s: access %d vpage %#x: hit=%v, reference says %v",
				cfg.Name, i, vp, gotHit, wantHit)
		}
		if wantHit {
			continue
		}
		misses++
		lat := dutWalker.Walk(now, vp)
		gotCold := lat > wcfg.BaseLatency
		wantCold := !refPTE.accessed(vp >> 3)
		if gotCold != wantCold {
			return fmt.Errorf("walker: walk %d vpage %#x: cold=%v (latency %d), reference says %v",
				i, vp, gotCold, lat, wantCold)
		}
		if wantCold {
			cold++
		}
		now += lat
	}
	switch {
	case dutTLB.Stats.Accesses != uint64(len(vpages)) || dutTLB.Stats.Misses != misses:
		return fmt.Errorf("TLB %s: counters say %d accesses / %d misses, reference says %d / %d",
			cfg.Name, dutTLB.Stats.Accesses, dutTLB.Stats.Misses, uint64(len(vpages)), misses)
	case dutWalker.Walks != misses || dutWalker.ColdWalks != cold:
		return fmt.Errorf("walker: counters say %d walks / %d cold, reference says %d / %d",
			dutWalker.Walks, dutWalker.ColdWalks, misses, cold)
	}
	return nil
}

// fetchAccount is the in-order fetch accountant's independent pass over an
// invocation's instruction stream.
type fetchAccount struct {
	instrs      uint64
	fetchBlocks uint64 // distinct-consecutive 64 B fetch blocks
	conds       uint64 // conditional branches
	takens      uint64 // taken branches (BTB lookups)
	dataAccs    uint64 // loads + stores
}

func accountStream(src cpu.InstrSource) fetchAccount {
	var a fetchAccount
	curBlock := ^uint64(0)
	for {
		in, ok := src.Next()
		if !ok {
			return a
		}
		a.instrs++
		if blk := in.VAddr &^ (mem.LineSize - 1); blk != curBlock {
			curBlock = blk
			a.fetchBlocks++
		}
		switch in.Op {
		case program.OpLoad, program.OpStore:
			a.dataAccs++
		case program.OpBranch:
			if in.Cond {
				a.conds++
			}
			if in.Taken {
				a.takens++
			}
		}
	}
}

// checkFetchAccountant runs one invocation of fn on a fresh core and
// cross-checks the core's event counters — retiring cycles, L1-I and TLB
// demand traffic, predictor and BTB activity — against the accountant's
// independent walk of the same stream. The Top-Down conservation identity is
// audited as well.
func checkFetchAccountant(fn string, id uint64) error {
	w, err := workload.ByName(fn)
	if err != nil {
		return err
	}
	c := cpu.NewCore(cpu.SkylakeConfig())
	c.MMU.SetAddressSpace(vm.NewAddressSpace(vm.NewFrameAllocator(0)))
	res := c.RunInvocation(w.Program.NewInvocation(id))
	want := accountStream(w.Program.NewInvocation(id))

	fail := func(what string, got, exp uint64) error {
		return fmt.Errorf("fetch accountant %s/%d: %s: core says %d, accountant says %d",
			fn, id, what, got, exp)
	}
	switch {
	case res.Instrs != want.instrs:
		return fail("retired instructions", res.Instrs, want.instrs)
	case res.Instrs != w.Program.DynamicLength(id):
		return fail("dynamic length", res.Instrs, w.Program.DynamicLength(id))
	//lukewarm:floateq the oracle asserts an exact integer-valued identity; any drift must fail loudly
	case res.Stack.Cycles[topdown.Retiring] != float64(want.instrs/uint64(c.Cfg.DispatchWidth)):
		// Retiring on a fresh core is exactly floor(instrs/DispatchWidth):
		// one cycle per full dispatch group, the sub-group residue uncharged.
		return fmt.Errorf("fetch accountant %s/%d: retiring cycles: core says %.0f, accountant says %d",
			fn, id, res.Stack.Cycles[topdown.Retiring], want.instrs/uint64(c.Cfg.DispatchWidth))
	case c.Hier.L1I.Stats.DemandAccesses[mem.Instr] != want.fetchBlocks:
		return fail("L1-I demand fetches", c.Hier.L1I.Stats.DemandAccesses[mem.Instr], want.fetchBlocks)
	case c.MMU.ITLB.Stats.Accesses != want.fetchBlocks:
		return fail("ITLB accesses", c.MMU.ITLB.Stats.Accesses, want.fetchBlocks)
	case c.Hier.L1D.Stats.DemandAccesses[mem.Data] != want.dataAccs:
		return fail("L1-D demand accesses", c.Hier.L1D.Stats.DemandAccesses[mem.Data], want.dataAccs)
	case c.MMU.DTLB.Stats.Accesses != want.dataAccs:
		return fail("DTLB accesses", c.MMU.DTLB.Stats.Accesses, want.dataAccs)
	case c.BP.Stats.Predictions != want.conds:
		return fail("direction predictions", c.BP.Stats.Predictions, want.conds)
	case c.BTB.Stats.Lookups != want.takens:
		return fail("BTB lookups", c.BTB.Stats.Lookups, want.takens)
	case res.Mispredicts != c.BP.Stats.Mispredicts:
		return fail("mispredict delta", res.Mispredicts, c.BP.Stats.Mispredicts)
	case res.Resteers != c.BTB.Stats.Resteers:
		return fail("resteer delta", res.Resteers, c.BTB.Stats.Resteers)
	}
	if err := faults.Audit(res); err != nil {
		return fmt.Errorf("fetch accountant %s/%d: %w", fn, id, err)
	}
	return nil
}

// oracleChecks enumerates the differential-oracle battery: every structure
// on seeded random streams, conflict streams, and trace-derived streams.
func oracleChecks() []namedCheck {
	smallCache := mem.Config{Name: "oracle-l1", SizeBytes: 16 << 10, Ways: 4, HitLatency: 1, MSHRs: 8}
	faCache := mem.Config{Name: "oracle-fa", SizeBytes: 8 << 10, Ways: 128, HitLatency: 1, MSHRs: 8}
	tlbCfg := vm.TLBConfig{Name: "oracle-tlb", Sets: 8, Ways: 4}
	walkerCfg := vm.WalkerConfig{BaseLatency: 25, CacheEntries: 16}

	return []namedCheck{
		{"oracle/cache/random", func() error {
			return checkCacheOracle(smallCache, randomAccesses(1, 60000, 32, 0, 0.3))
		}},
		{"oracle/cache/hot-cold", func() error {
			return checkCacheOracle(smallCache, hotColdAccesses(2, 60000, 4, 4096))
		}},
		{"oracle/cache/strided-conflict", func() error {
			return checkCacheOracle(smallCache, stridedAccesses(20000, 4<<10, 1<<20))
		}},
		{"oracle/cache/fully-associative", func() error {
			return checkCacheOracle(faCache, randomAccesses(3, 60000, 16, 0, 0.5))
		}},
		{"oracle/cache/fully-associative-recycled", func() error {
			return checkRecycledCacheOracle(faCache, randomAccesses(5, 20000, 16, 0, 0.5), randomAccesses(3, 60000, 16, 0, 0.5))
		}},
		{"oracle/cache/trace", func() error {
			stream, err := traceAccesses("Auth-G", 0, 120000)
			if err != nil {
				return err
			}
			return checkCacheOracle(smallCache, stream)
		}},
		{"oracle/btb/random", func() error {
			return checkBTBOracle(256, randomBranches(4, 60000, 1024, 64))
		}},
		{"oracle/btb/trace", func() error {
			stream, err := traceBranches("Email-P", 0, 120000)
			if err != nil {
				return err
			}
			return checkBTBOracle(256, stream)
		}},
		{"oracle/tlb/random", func() error {
			return checkTLBOracle(tlbCfg, walkerCfg,
				vpagesOf(randomAccesses(5, 60000, 256, 0, 0)))
		}},
		{"oracle/tlb/trace", func() error {
			stream, err := traceAccesses("Pay-N", 0, 120000)
			if err != nil {
				return err
			}
			return checkTLBOracle(tlbCfg, walkerCfg, vpagesOf(stream))
		}},
		{"oracle/fetch-accountant/Auth-G", func() error {
			return checkFetchAccountant("Auth-G", 0)
		}},
		{"oracle/fetch-accountant/Email-P", func() error {
			return checkFetchAccountant("Email-P", 1)
		}},
	}
}
