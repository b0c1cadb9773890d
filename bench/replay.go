package bench

import (
	"time"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/mem"
	"lukewarm/internal/program"
	"lukewarm/internal/reap"
	"lukewarm/internal/vm"
)

// The layers inside cpu.Core.RunInvocation cannot be timed from outside
// without perturbing them, so the benchmark replays a sample of a host's own
// invocations through each layer's public entry points on fresh structures
// built from the same configuration, in the same flush regime, and times the
// entry points batch by batch. Per-op costs times the host's own op counts
// then estimate each layer's share of the Invoke time it could not see.

// layerCosts accumulates replay time (ns) and op counts per layer.
type layerCosts struct {
	walkNs, resetNs             int64
	instrs, resets              uint64
	translateNs                 int64
	translations                uint64
	fetchNs, dataNs             int64
	fetches, data               uint64
	flushNs                     int64
	flushes                     uint64
	branchNs                    int64
	branches                    uint64
	jbReplayNs, jbRecordNs      int64
	jbReplays, jbFetches        uint64
	reapRestoreNs, reapRecordNs int64
	reapRestores, reapAccesses  uint64
}

// perOp is ns per op, 0 for no ops.
func perOp(ns int64, ops uint64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(ns) / float64(ops)
}

// replayer is one set of core structures a sample is replayed through.
// The main replayer mirrors the host's core, mechanisms included; a side
// replayer carries the mechanisms the host lacks, so their costs are
// measured on every workload's streams, and times only them.
type replayer struct {
	hier     *mem.Hierarchy
	mmu      *vm.MMU
	bp       *cpu.BranchPredictor // nil on a side replayer
	btb      *cpu.BTB
	as       []*vm.AddressSpace // per function
	jb       []*core.Jukebox    // per function; nil without Jukebox
	rp       []*reap.Reap       // per function; nil without REAP
	timeCore bool
	cur      int
	curBlock uint64
	clk      mem.Cycle
	retired  uint64
	// Per-batch scratch: the translated fetch block (if the instruction
	// starts one) and data address of each instruction, and fetch results.
	newBlock []bool
	fetchPA  []uint64
	dataPA   []uint64
	fres     []mem.Result
}

func newReplayer(cfg cpu.Config, nfn int, jukebox, withReap, timeCore bool) *replayer {
	hier := mem.NewHierarchy(cfg.Hier)
	alloc := vm.NewFrameAllocator(0)
	r := &replayer{hier: hier, mmu: vm.NewMMU(cfg.MMU, hier.DRAM), timeCore: timeCore, cur: -1}
	if timeCore {
		r.bp = cpu.NewBranchPredictor(cfg.BP)
		r.btb = cpu.NewBTB(cfg.BP.BTBEntries)
	}
	for i := 0; i < nfn; i++ {
		r.as = append(r.as, vm.NewAddressSpace(alloc))
	}
	if jukebox {
		for i := 0; i < nfn; i++ {
			r.jb = append(r.jb, core.New(core.DefaultConfig(), hier, r.mmu, alloc))
		}
	}
	if withReap {
		for i := 0; i < nfn; i++ {
			r.rp = append(r.rp, reap.New(reap.DefaultConfig(), hier, r.mmu))
		}
	}
	return r
}

// flush obliterates the replayer's state, as Server.FlushMicroarch does.
func (r *replayer) flush(c *layerCosts) {
	t := time.Now()
	r.hier.FlushAll()
	r.mmu.Flush()
	if r.bp != nil {
		r.bp.Flush()
		r.btb.Flush()
	}
	if r.timeCore {
		c.flushNs += int64(time.Since(t))
		c.flushes++
	}
}

// begin starts replaying an invocation of function fn: the optional flush,
// the address-space switch, and the mechanisms' InvocationStart in the
// server's restore order (REAP, then Jukebox).
func (r *replayer) begin(fn int, flush bool, c *layerCosts) {
	if flush {
		r.flush(c)
	}
	if r.cur != fn {
		r.mmu.SetAddressSpace(r.as[fn])
		r.mmu.Flush()
		r.cur = fn
	}
	r.curBlock = ^uint64(0)
	if r.rp != nil {
		t := time.Now()
		r.rp[fn].InvocationStart(r.clk)
		c.reapRestoreNs += int64(time.Since(t))
		c.reapRestores++
	}
	if r.jb != nil {
		t := time.Now()
		r.jb[fn].InvocationStart(r.clk)
		c.jbReplayNs += int64(time.Since(t))
		c.jbReplays++
	}
}

// end seals the mechanisms' record side for the invocation.
func (r *replayer) end(c *layerCosts) {
	if r.rp != nil {
		t := time.Now()
		r.rp[r.cur].InvocationEnd(r.clk)
		c.reapRecordNs += int64(time.Since(t))
	}
	if r.jb != nil {
		t := time.Now()
		r.jb[r.cur].InvocationEnd(r.clk)
		c.jbRecordNs += int64(time.Since(t))
	}
}

// batch feeds one walker batch through the layers, one layer at a time in
// the core's per-instruction order (fetch-block translation, then data
// translation; fetch, then data access).
func (r *replayer) batch(buf []program.Instr, c *layerCosts) {
	n := len(buf)
	if cap(r.fetchPA) < n {
		r.newBlock = make([]bool, n)
		r.fetchPA = make([]uint64, n)
		r.dataPA = make([]uint64, n)
		r.fres = make([]mem.Result, n)
	}
	newBlock, fetchPA, dataPA, fres := r.newBlock[:n], r.fetchPA[:n], r.dataPA[:n], r.fres[:n]
	clk := r.clk

	t := time.Now()
	var translations uint64
	blk := r.curBlock
	for i := range buf {
		in := &buf[i]
		newBlock[i] = false
		if b := in.VAddr &^ (mem.LineSize - 1); b != blk {
			blk = b
			var lat mem.Cycle
			fetchPA[i], lat = r.mmu.TranslateInstr(clk, in.VAddr)
			newBlock[i] = true
			clk += lat
			translations++
		}
		if in.Op == program.OpLoad || in.Op == program.OpStore {
			var lat mem.Cycle
			dataPA[i], lat = r.mmu.TranslateData(clk, in.MemAddr)
			clk += lat
			translations++
		}
	}
	r.curBlock = blk
	if r.timeCore {
		c.translateNs += int64(time.Since(t))
		c.translations += translations
	}

	t = time.Now()
	var fetches uint64
	for i := range buf {
		if newBlock[i] {
			fres[i] = r.hier.FetchInstr(clk, fetchPA[i])
			clk += fres[i].Latency
			fetches++
		}
	}
	if r.timeCore {
		c.fetchNs += int64(time.Since(t))
		c.fetches += fetches
	}

	t = time.Now()
	var data uint64
	for i := range buf {
		if op := buf[i].Op; op == program.OpLoad || op == program.OpStore {
			clk += r.hier.AccessData(clk, dataPA[i], op == program.OpStore).Latency
			data++
		}
	}
	if r.timeCore {
		c.dataNs += int64(time.Since(t))
		c.data += data
	}

	if r.bp != nil {
		t = time.Now()
		var branches uint64
		for i := range buf {
			in := &buf[i]
			if in.Op != program.OpBranch {
				continue
			}
			if in.Cond {
				r.bp.Update(in.VAddr, in.Taken)
				branches++
			}
			if in.Taken {
				target := in.Target
				if in.Indirect {
					target ^= (r.retired + uint64(i)) << 32
				}
				r.btb.LookupAndUpdate(in.VAddr, target)
				branches++
			}
		}
		c.branchNs += int64(time.Since(t))
		c.branches += branches
	}

	if r.jb != nil {
		jb := r.jb[r.cur]
		t = time.Now()
		for i := range buf {
			if newBlock[i] {
				jb.OnFetch(clk, buf[i].VAddr, fetchPA[i], fres[i])
			}
		}
		c.jbRecordNs += int64(time.Since(t))
		c.jbFetches += fetches
	}

	if r.rp != nil {
		rp := r.rp[r.cur]
		t = time.Now()
		for i := range buf {
			in := &buf[i]
			if newBlock[i] {
				rp.OnFetch(clk, in.VAddr, fetchPA[i], fres[i])
			}
			if in.Op == program.OpLoad || in.Op == program.OpStore {
				rp.OnDataAccess(clk, in.MemAddr, dataPA[i], in.Op == program.OpStore)
			}
		}
		c.reapRecordNs += int64(time.Since(t))
		c.reapAccesses += fetches + data
	}

	r.retired += uint64(n)
	r.clk = clk + mem.Cycle(n)
}

// replayHost replays, for every function of h, its warm-up invocation (to
// bring the structures to the pass's state; its timings are discarded) and
// the first two measured ones, and returns the accumulated per-layer costs.
// In the warm regime, where the host never flushes, one flush per function
// is timed after its sample so mem.flush is measured on every workload.
func replayHost(h *host) layerCosts {
	var lt layerCosts
	spec := h.spec
	cfg := spec.serverConfig().CPU
	n := len(h.insts)
	main := newReplayer(cfg, n, spec.jukebox, spec.reap, true)
	var side *replayer
	if !spec.jukebox || !spec.reap {
		side = newReplayer(cfg, n, !spec.jukebox, !spec.reap, false)
	}
	var inv program.Invocation
	buf := make([]program.Instr, 512)
	for fn, inst := range h.insts {
		prog := inst.Workload.Program
		for k := uint64(0); k < 3; k++ {
			c := &lt
			if k == 0 {
				c = &layerCosts{}
			}
			main.begin(fn, spec.flush, c)
			if side != nil {
				side.begin(fn, spec.flush, c)
			}
			t := time.Now()
			prog.ResetInvocation(&inv, h.warmID[fn]+k)
			d := int64(time.Since(t))
			c.resetNs += d
			c.walkNs += d
			c.resets++
			for {
				t = time.Now()
				got := inv.NextBatch(buf)
				c.walkNs += int64(time.Since(t))
				if got == 0 {
					break
				}
				c.instrs += uint64(got)
				main.batch(buf[:got], c)
				if side != nil {
					side.batch(buf[:got], c)
				}
			}
			main.end(c)
			if side != nil {
				side.end(c)
			}
		}
		if !spec.flush {
			main.flush(&lt)
		}
	}
	return lt
}
