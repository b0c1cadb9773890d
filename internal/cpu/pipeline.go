package cpu

import (
	"sync"
	"sync/atomic"

	"lukewarm/internal/mem"
	"lukewarm/internal/program"
	"lukewarm/internal/vm"
)

// The core runs an invocation in two stages.
//
// Stage 1 (frontEnd.fill) walks the program and does the time-independent
// half of translation for a batch of instructions: the ITLB/DTLB lookup,
// the walker's PTE-line cache, demand frame allocation in the address space,
// and new-fetch-block detection. It writes the physical addresses and the
// kind of each walk beside the instruction. Both stages visit only the
// batch's events (see batch).
//
// Stage 2 (Core.exec) charges each walk's latency, making a cold walk's DRAM
// access at the cycle translation always made it, and drives the cache
// hierarchy, branch predictor, BTB and prefetcher hooks. It translates
// nothing.
//
// A short stream runs both stages back to back on the caller's goroutine;
// past its first inlineLen instructions, a stream runs stage 1 on a
// goroutine of its own, a batch or more ahead of stage 2 on the caller's.
// The output is bit-identical either way because of one ownership rule:
//
//	The instruction stream is a pure function of (program, id). Between
//	InvocationStart returning and InvocationEnd being called, nothing but
//	stage 1 touches the MMU's TLBs, its walker cache or the address space.
//
// The warm-up mechanisms honour it: Jukebox replay and REAP restore
// translate only inside InvocationStart and BeginPrewarm, and the per-access
// hooks (OnFetch, OnBlockRetire, OnDataAccess) use only the addresses they
// are handed. Stage 2's DRAM accesses, cache fills and hook calls happen in
// exactly the order they always did, so nothing that depends on simulated
// time can tell the stages apart.

// batchLen is the number of instructions stage 1 hands stage 2 at a time
// in a pipelined run. It is a power of two, so masking an event index with
// batchLen-1 proves it in bounds, and it fits the uint16 event indices.
const batchLen = 1024

const _ = uint16(batchLen - 1) // compile-time check: event indices fit a uint16

// pipeDepth is the number of batches a pipelined run cycles through: stage
// 2 executes one while stage 1 fills the others. Four 1024-instruction
// batches (232 KB) keep stage 1 ahead; larger batches overlap no better and
// add live heap, which the garbage collector doubles into resident memory.
const pipeDepth = 4

// inlineLen is the short-stream rule: the first inlineLen instructions of a
// stream run on the caller's goroutine, and only a longer stream starts a
// stage-1 goroutine for the rest, because starting one costs more than
// overlapping a couple of batches saves. A short stream therefore overlaps
// nothing here; its walk, the larger half of stage 1 for it, usually ran
// ahead on an idle CPU before the dispatch (program.Stream), so stage 1
// only reads its events back and translates.
const inlineLen = 2 * batchLen

// chunkLen is what the caller's goroutine walks and executes at a time
// while it runs a stream's first inlineLen instructions: a chunk of
// instructions, annotations and events (15 KB) stays in the host's L1,
// where a whole batch would push the simulated caches' own arrays out of it
// on every short invocation.
const chunkLen = 256

// xlat is stage 1's annotation of one instruction.
type xlat struct {
	// fetchPA is the physical address of VAddr, valid when newBlock is set.
	fetchPA uint64
	// dataPA is the physical address of MemAddr, valid for loads and stores.
	dataPA uint64
	// iwalk and dwalk are the ITLB and DTLB walks stage 2 still has to
	// charge.
	iwalk, dwalk vm.WalkKind
	// newBlock marks an instruction that starts a new fetch block.
	newBlock bool
}

// batch is one pooled buffer of the pipeline: n instructions, the indices
// of the ne events among them, and the events' stage-1 annotations.
//
// An event is an instruction either stage may have work for: one that
// starts or ends a code line, or a load or store. The walker records them
// as it generates the stream (program.Invocation.WalkBatch); a source with
// only Next marks every instruction an event. Everything else is a plain
// mid-line instruction, which cannot start a fetch block, so neither stage
// looks at it: stage 1 translates nothing for it and stage 2 retires each
// run of them in one step. Only events have an xl entry written.
type batch struct {
	n, ne int
	instr [batchLen]program.Instr
	xl    [batchLen]xlat
	ev    [batchLen]uint16
}

// frontEnd is stage 1: the instruction source and the MMU state it owns for
// the duration of an invocation.
type frontEnd struct {
	mmu *vm.MMU
	src InstrSource
	// es is src's event-recording bulk side, nil for sources with only
	// Next.
	es eventSource
	// ended records that src reported the end of the stream.
	ended bool
	// curBlock is the fetch block of the previous instruction.
	curBlock uint64
}

// start points stage 1 at a new stream.
func (f *frontEnd) start(mmu *vm.MMU, src InstrSource) {
	es, _ := src.(eventSource)
	*f = frontEnd{mmu: mmu, src: src, es: es, curBlock: ^uint64(0)}
}

// fill runs stage 1 over at most limit (<= batchLen) further instructions
// of the stream into b and returns how many it holds: limit unless the
// stream ended. It translates events only: a plain mid-line instruction
// shares its line's fetch block, which the line's start already checked.
//
//lukewarm:hotpath noalloc,noescape,nobce the stage-1 batch loop: walks the stream and translates its events ahead of exec
func (f *frontEnd) fill(b *batch, limit int) int {
	n, ne := f.read(b, limit)
	mmu := f.mmu
	for k := range b.ev {
		if k == ne {
			break
		}
		i := b.ev[k] & (batchLen - 1)
		in, x := &b.instr[i], &b.xl[i]
		blk := in.VAddr &^ (mem.LineSize - 1)
		x.newBlock = blk != f.curBlock
		if x.newBlock {
			f.curBlock = blk
			x.fetchPA, x.iwalk = mmu.ResolveInstr(in.VAddr)
		}
		if in.Op == program.OpLoad || in.Op == program.OpStore {
			x.dataPA, x.dwalk = mmu.ResolveData(in.MemAddr)
		}
	}
	b.n, b.ne = n, ne
	return n
}

// read fills b's first limit instructions and their events from the
// source, all limit unless the stream ends, and returns the counts. It
// never asks a source for more after the source reported the end.
//
//lukewarm:hotpath noalloc,noescape the per-batch source drain, through WalkBatch or one Next call per instruction
func (f *frontEnd) read(b *batch, limit int) (n, ne int) {
	if f.ended {
		return 0, 0
	}
	if f.es != nil {
		n, ne = f.es.WalkBatch(b.instr[:limit], b.ev[:limit])
		f.ended = n < limit
		return n, ne
	}
	for n < limit {
		in, ok := f.src.Next()
		if !ok {
			f.ended = true
			break
		}
		b.instr[n] = in
		b.ev[n] = uint16(n) // without an event list, every instruction is one
		n++
	}
	return n, n
}

// pipe is one two-stage pipeline: stage 1's state and the batches the
// stages hand each other. An invocation borrows one from pipes.
type pipe struct {
	fe frontEnd
	// inline is the batch the caller's goroutine fills a chunk at a time;
	// a pipelined run cycles it through the channels with the others.
	inline *batch
	// free carries empty batches to stage 1, full carries filled ones to
	// stage 2; a nil on full means stage 1 has exited. free holds every
	// batch and full every batch plus that nil, so no send ever blocks and
	// a stage that stops early never strands the other.
	free, full chan *batch
	// stop asks stage 1 to exit early: stage 2 panicked.
	stop atomic.Bool
	// running is set while a stage-1 goroutine may be live.
	running bool
	// panicVal carries a stage-1 panic to the caller's goroutine; it is
	// written before the final nil on full.
	panicVal any
}

// pipes is the free list of pipelines. An invocation borrows one and
// returns it when it completes, so the batches in existence are bounded by
// the number of invocations running at once rather than by the number of
// cores ever built: a sweep builds a server per cell. It is not a
// sync.Pool because the race detector makes a sync.Pool drop objects at
// random, and a warm invocation must not allocate under -race either.
var pipes struct {
	sync.Mutex
	free []*pipe
}

// getPipe borrows a pipeline.
func getPipe() *pipe {
	pipes.Lock()
	var p *pipe
	if n := len(pipes.free); n > 0 {
		p = pipes.free[n-1]
		pipes.free = pipes.free[:n-1]
	}
	pipes.Unlock()
	if p == nil {
		p = new(pipe)
	}
	return p
}

// putPipe returns a pipeline whose stage-1 goroutine, if any, has exited.
func putPipe(p *pipe) {
	p.fe = frontEnd{} // drop the references to the source and the MMU
	pipes.Lock()
	pipes.free = append(pipes.free, p)
	pipes.Unlock()
}

// first returns the batch the caller's goroutine fills while it runs a
// stream's first inlineLen instructions.
func (p *pipe) first() *batch {
	if p.inline == nil {
		p.inline = new(batch)
	}
	return p.inline
}

// prepare readies p for a pipelined run. Outside a run, free holds every
// batch: a pipelined run ends only once stage 2 has put back the last one,
// and a pipeline that saw a panic is never reused.
func (p *pipe) prepare() {
	if p.free == nil {
		p.free = make(chan *batch, pipeDepth)
		p.full = make(chan *batch, pipeDepth+1)
		p.free <- p.first()
		for i := 1; i < pipeDepth; i++ {
			p.free <- new(batch)
		}
	}
	p.stop.Store(false)
	p.running = true
}

// stage1Handoff passes a pipe to the stage-1 goroutine just started for it.
// Handing it over a channel rather than as an argument keeps the go
// statement free of a heap-allocated closure, so a warm invocation does not
// allocate.
var stage1Handoff = make(chan *pipe)

// stage1Main is the body of a stage-1 goroutine.
func stage1Main() { (<-stage1Handoff).produce() }

// produce fills batches until the stream ends or stage 2 asks it to stop.
// A panic is caught and carried to stage 2, which re-raises it on the
// caller's goroutine; either way the last thing produce does is send nil.
func (p *pipe) produce() {
	defer func() {
		p.panicVal = recover()
		p.full <- nil
	}()
	for !p.stop.Load() {
		b := <-p.free
		n := p.fe.fill(b, batchLen)
		p.full <- b
		if n < batchLen {
			return
		}
	}
}

// quiesce stops a stage-1 goroutine that may still be running and waits for
// it to exit. runPipelined defers it so that a panic in stage 2 leaves no
// goroutine behind; after a normal run it does nothing.
func (p *pipe) quiesce() {
	if !p.running {
		return
	}
	p.stop.Store(true)
	for b := <-p.full; b != nil; b = <-p.full {
		p.free <- b
	}
	p.running = false
}

// run executes the stream through both stages and returns its length. A
// pipeline that saw a panic is not returned to the free list.
func (c *Core) run(src InstrSource, acc *tdAcc) uint64 {
	p := getPipe()
	p.fe.start(c.MMU, src)
	b := p.first()
	var n uint64
	for n < inlineLen {
		k := p.fe.fill(b, chunkLen)
		c.execBatch(b, acc)
		n += uint64(k)
		if k < chunkLen {
			putPipe(p)
			return n
		}
	}
	n += c.runPipelined(p, acc)
	putPipe(p)
	return n
}

// runPipelined executes the rest of a stream while a stage-1 goroutine
// fills it, and returns its length.
func (c *Core) runPipelined(p *pipe, acc *tdAcc) uint64 {
	p.prepare()
	defer p.quiesce()
	go stage1Main()
	stage1Handoff <- p
	var instrs uint64
	for b := <-p.full; b != nil; b = <-p.full {
		c.execBatch(b, acc)
		instrs += uint64(b.n)
		p.free <- b
	}
	p.running = false
	if p.panicVal != nil {
		panic(p.panicVal)
	}
	return instrs
}

// execBatch is stage 2 over one batch. It visits the events only: each
// run of plain instructions before an event retires in one step together
// with the event itself, and the run after the last event at the end.
//
//lukewarm:hotpath noalloc,noescape,nobce stage 2's batch loop; every simulated instruction passes through it
func (c *Core) execBatch(b *batch, acc *tdAcc) {
	next := 0 // the first instruction not yet retired
	for k := range b.ev {
		if k == b.ne {
			break
		}
		i := int(b.ev[k] & (batchLen - 1))
		c.retire(i+1-next, acc)
		c.exec(&b.instr[i], &b.xl[i], acc)
		next = i + 1
	}
	c.retire(b.n-next, acc)
}
