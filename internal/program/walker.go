package program

// Invocation is one deterministic walk of a program's template: the dynamic
// instruction stream the core model consumes. The same (program, invocation
// id) pair always yields the identical stream, which lets the footprint
// analyses and the timing runs see exactly the same execution.
//
// The walk delivers code lines from the invocation's segment plan; lines
// with call-outs detour through their helper routine before the walk
// continues, interleaving distant code regions in the fetch stream exactly
// the way real call-heavy runtime code does.
type Invocation struct {
	p    *Program
	gen  opGen
	id   uint64
	plan []int // sequence of segment indices

	// normal-path cursor
	step int // index into plan
	line int // line within current segment
	// call-out state
	inCall   bool
	callNext int // absolute index of the next callee line
	callRem  int

	// one-line lookahead: cur is the line being emitted, next follows it.
	cur, next int
	haveNext  bool
	instr     int // instruction index within cur

	emitted uint64
	coldPtr uint64
	done    bool

	// evScratch is NextBatch's event list, which it discards. It is an
	// array, not a slice grown to the caller's buffer, so NextBatch never
	// allocates.
	evScratch [512]uint16
}

// opGen is the op generator's state: the invocation's RNG and whether the
// previous op was a load. emitOp and emitMem take and return it by value,
// so WalkBatch keeps it in a local across a line while Next and WalkBatch
// still share one generator.
type opGen struct {
	rng      RNG
	prevLoad bool
}

// NewInvocation creates the walker for invocation id. Ids are arbitrary;
// distinct ids differ in optional-segment inclusion and data access streams.
func (p *Program) NewInvocation(id uint64) *Invocation {
	inv := &Invocation{}
	p.ResetInvocation(inv, id)
	return inv
}

// ResetInvocation reinitializes inv as invocation id of p, reusing inv's
// plan storage. The resulting walker is indistinguishable from a fresh
// NewInvocation — the server's dispatch path uses it to serve every
// invocation of an instance from one pooled walker with no steady-state
// allocation.
//
//lukewarm:hotpath noalloc the dispatch path pools walkers; a per-invocation allocation here multiplies across the fleet
func (p *Program) ResetInvocation(inv *Invocation, id uint64) {
	plan := inv.plan[:0]
	*inv = Invocation{p: p, id: id, gen: opGen{rng: *NewRNG(Mix(p.cfg.Seed, Mix(0x1907, id)))}}
	inv.plan = p.buildPlanInto(plan, &inv.gen.rng)
	cur, ok := inv.advanceLine()
	if !ok {
		inv.done = true
		return
	}
	inv.cur = cur
	inv.next, inv.haveNext = inv.advanceLine()
}

// buildPlanInto selects the segments this invocation executes, in template
// order, interleaved with dispatcher re-entries, padded with loop-segment
// iterations toward the configured dynamic length. The plan is appended to
// plan's storage (pass plan[:0] to reuse an existing buffer).
func (p *Program) buildPlanInto(plan []int, rng *RNG) []int {
	per := float64(p.cfg.InstrPerLine)
	expand := p.callExpansion()
	est := 0.0
	// the closure never escapes buildPlanInto, so it and its captures stay on the stack (perfgate-verified)
	add := func(si int) {
		plan = append(plan, si) // the plan buffer is pooled per walker and grows to its high-water mark once
		mul := expand
		if si == p.dispatch {
			mul = 1 // the dispatcher has no call-outs
		}
		est += float64(float64(p.segments[si].numLines) * per * mul)
	}

	add(p.dispatch)
	for si := range p.segments {
		s := &p.segments[si]
		if si == p.dispatch {
			continue
		}
		include := false
		switch s.class {
		case segCore:
			include = true
		case segOptional, segRare:
			include = rng.Bool(s.prob)
		}
		if !include {
			continue
		}
		add(si)
		if rng.Bool(0.25) {
			add(p.dispatch)
		}
	}

	// Pad with loop-segment iterations (the handler's compute kernels)
	// until the dynamic-length target is met.
	loops := p.loopSegs
	// Bias slightly above the target: the call-expansion estimate is an
	// upper bound (some call draws fail), so undershoot would otherwise be
	// systematic.
	target := float64(p.cfg.DynamicInstrs) * 1.04
	for len(loops) > 0 && est < target {
		for _, si := range loops {
			add(si)
			if est >= target {
				break
			}
			if rng.Bool(0.15) {
				add(p.dispatch)
			}
		}
	}
	return plan
}

// advanceLine yields the next absolute code-line index of the walk,
// handling call-out detours. Callee lines do not themselves call (no
// nesting).
func (inv *Invocation) advanceLine() (int, bool) {
	if inv.inCall {
		if inv.callRem > 0 {
			l := inv.callNext
			inv.callNext++
			inv.callRem--
			return l, true
		}
		inv.inCall = false
	}
	if inv.step >= len(inv.plan) {
		return 0, false
	}
	s := &inv.p.segments[inv.plan[inv.step]]
	abs := s.firstLine + inv.line
	inv.line++
	if inv.line >= s.numLines {
		inv.line = 0
		inv.step++
	}
	if t := inv.p.callTarget[abs]; t >= 0 {
		inv.inCall = true
		inv.callNext = int(t)
		inv.callRem = int(inv.p.callLen[abs])
	}
	return abs, true
}

// Emitted reports the number of instructions produced so far.
func (inv *Invocation) Emitted() uint64 { return inv.emitted }

// NextBatch fills buf with the next instructions of the stream and returns
// how many were produced; 0 means the stream has ended. It is WalkBatch
// with the event list discarded, run a scratch-sized piece of buf at a
// time.
//
//lukewarm:hotpath noalloc,noescape the batched generator for callers that need no event list
func (inv *Invocation) NextBatch(buf []Instr) int {
	n := 0
	for n < len(buf) {
		k := min(len(buf)-n, len(inv.evScratch))
		got, _ := inv.WalkBatch(buf[n:n+k], inv.evScratch[:k])
		n += got
		if got < k {
			break
		}
	}
	return n
}

// WalkBatch fills buf with the next instructions of the stream and returns
// how many were produced, n, and how many events it recorded, ne. It fills
// buf completely unless the stream ends, so n < len(buf) means the stream
// has ended. The stream is exactly the one repeated Next calls yield — same
// instructions, same RNG consumption — so the core's batched path is
// bit-identical to the per-instruction one (internal/check's differential
// tests enforce this).
//
// ev[:ne] receives the indices into buf, strictly increasing, of every
// instruction that starts a code line, ends one, or is a load or store: the
// only instructions that can start a fetch block, transfer control or touch
// data. The rest are plain mid-line instructions a consumer only has to
// count. ev must be at least len(buf) long, and len(buf) at most 1<<16 for
// the indices to fit.
//
// The per-line loop inlines Next's common case — a non-terminal
// instruction of the current line, which needs no control-transfer
// decision — with the generator state and the line address in locals, and
// falls back to Next itself for line-terminal instructions, so the two
// paths share the control-transfer logic rather than duplicating it.
//
//lukewarm:hotpath noalloc,noescape the batched generator feeds the core's fetch loop
func (inv *Invocation) WalkBatch(buf []Instr, ev []uint16) (n, ne int) {
	p := inv.p
	last := p.cfg.InstrPerLine - 1
	stride, thrMem := p.der.stride, p.der.thrLoadStore
	ev = ev[:len(buf)]
	for n < len(buf) && !inv.done {
		if inv.instr != last {
			k, la, g := inv.instr, p.lineAddr[inv.cur], inv.gen
			end := min(last, k+len(buf)-n)
			if k == 0 {
				// A line start is an event whatever its op.
				in := &buf[n]
				*in = Instr{VAddr: la}
				g = inv.emitOp(g, in)
				ev[ne] = uint16(n)
				ne++
				n++
				k++
			}
			for ; k < end; k++ {
				in := &buf[n]
				*in = Instr{VAddr: la + uint64(k)*stride}
				if u := g.rng.Uint64() >> 11; u >= thrMem {
					g.prevLoad = false // a plain instruction, Op's zero value
				} else {
					g = inv.emitMem(g, u, in)
					ev[ne] = uint16(n)
					ne++
				}
				n++
			}
			inv.emitted += uint64(k - inv.instr)
			inv.instr, inv.gen = k, g
			continue
		}
		in, ok := inv.Next()
		if !ok {
			break
		}
		buf[n] = in
		ev[ne] = uint16(n) // a line end is an event whatever its op
		ne++
		n++
	}
	return n, ne
}

// Next produces the next dynamic instruction; ok is false at stream end.
//
//lukewarm:hotpath noalloc,noescape the per-instruction generator; the Instr result must stay in registers
func (inv *Invocation) Next() (in Instr, ok bool) {
	if inv.done {
		return Instr{}, false
	}
	cfg := &inv.p.cfg
	lineAddr := inv.p.lineAddr[inv.cur]
	in.VAddr = lineAddr + uint64(inv.instr)*inv.p.der.stride
	inv.emitted++

	if inv.instr != cfg.InstrPerLine-1 {
		inv.gen = inv.emitOp(inv.gen, &in)
		inv.instr++
		return in, true
	}

	// Last instruction of the line: control transfer decision.
	switch {
	case !inv.haveNext:
		// Final instruction of the invocation: a return to the runtime.
		in.Op = OpBranch
		in.Taken = true
		in.Target = inv.p.lineAddr[inv.p.segments[inv.p.dispatch].firstLine]
		inv.done = true
		return in, true
	default:
		nextAddr := inv.p.lineAddr[inv.next]
		if nextAddr != lineAddr+lineSize {
			// Non-sequential transfer: call, return, jump, or loop edge.
			in.Op = OpBranch
			in.Taken = true
			in.Target = nextAddr
			// Dispatch-style transfers (to a segment entry point) may be
			// indirect: interpreter/JIT dispatch tables.
			if inv.p.segStart[inv.next] {
				in.Indirect = inv.gen.rng.Bool(cfg.IndirectFrac)
			}
		} else if inv.gen.rng.Bool(cfg.SkipFrac) {
			// Taken conditional jumping over the next line: per-invocation
			// control-flow divergence at block granularity.
			in.Op = OpBranch
			in.Cond = true
			in.Taken = true
			inv.next, inv.haveNext = inv.advanceLine() // skip one line
			if inv.haveNext {
				in.Target = inv.p.lineAddr[inv.next]
			} else {
				in.Target = inv.p.lineAddr[inv.p.segments[inv.p.dispatch].firstLine]
				inv.done = true
				return in, true
			}
		} else if inv.gen.rng.Bool(cfg.NoisyFrac) {
			// Data-dependent 50/50 conditional: the bad-speculation
			// source. Both outcomes continue at the sequential next line
			// (the taken path targets the if-body starting there).
			in.Op = OpBranch
			in.Cond = true
			in.Taken = inv.gen.rng.Bool(0.5)
			in.Target = nextAddr
		} else if inv.gen.rng.Bool(cfg.CondFrac) {
			// Biased, learnable conditional.
			in.Op = OpBranch
			in.Cond = true
			in.Taken = inv.gen.rng.Bool(inv.p.der.condTaken)
			in.Target = nextAddr
		} else {
			inv.gen = inv.emitOp(inv.gen, &in)
		}
	}

	// Advance the lookahead window.
	inv.instr = 0
	inv.cur = inv.next
	inv.next, inv.haveNext = inv.advanceLine()
	return in, true
}

// emitOp fills in a non-control instruction — plain, load, or store, with
// a generated effective address — from generator state g, and returns the
// state after it. WalkBatch's per-line loop inlines the plain case and
// calls emitMem for the rest, drawing exactly as emitOp does.
//
//lukewarm:hotpath noalloc,noescape,nobce runs for every instruction Next generates and every line start; threshold compares only
func (inv *Invocation) emitOp(g opGen, in *Instr) opGen {
	u := g.rng.Uint64() >> 11
	if u >= inv.p.der.thrLoadStore {
		in.Op = OpPlain
		g.prevLoad = false
		return g
	}
	return inv.emitMem(g, u, in)
}

// emitMem fills in a load or store for op draw u (below the load-or-store
// threshold) from generator state g and returns the state after it.
//
//lukewarm:hotpath noalloc,noescape,nobce runs once per generated load or store; threshold compares only
func (inv *Invocation) emitMem(g opGen, u uint64, in *Instr) opGen {
	if u >= inv.p.der.thrLoad {
		in.Op = OpStore
		in.MemAddr, g.rng = inv.dataAddr(g.rng)
		g.prevLoad = false
		return g
	}
	in.Op = OpLoad
	in.MemAddr, g.rng = inv.dataAddr(g.rng)
	if g.prevLoad && g.rng.Uint64()>>11 < inv.p.der.thrDepLoad {
		in.DepLoad = true
	}
	g.prevLoad = true
	return g
}

// coldRegionBytes bounds the per-invocation streaming region (request
// payload buffers), reused across invocations.
const coldRegionBytes = 256 << 10

// dataAddr generates one effective address from the hot/warm/cold mix,
// drawing from r, and returns it with r's state after the draws.
//
// The hot subset (runtime state) and half of the warm set (long-lived
// objects, caches, connection state) persist across invocations; the other
// warm half (per-request heap allocations, churned by the allocator/GC
// between requests) and the cold streaming region (request payload buffers)
// alternate between two generations per invocation. The data footprint thus
// has markedly lower cross-invocation commonality than the instruction
// footprint — which is precisely why the paper targets instructions
// (Sec. 2.5), and why indiscriminate whole-LLC restoration wastes bandwidth
// on stale data.
//
//lukewarm:hotpath noalloc,noescape,nobce one effective address per load/store; the magic-divider mods must not spill
func (inv *Invocation) dataAddr(r RNG) (uint64, RNG) {
	cfg := &inv.p.cfg
	gen := inv.id & 1
	u := r.Uint64() >> 11
	switch {
	case u < inv.p.der.thrHot:
		return heapBase + inv.p.der.hotDiv.mod(r.Uint64())&^7, r
	case u < inv.p.der.thrHotCold:
		inv.coldPtr += lineSize
		if inv.coldPtr >= coldRegionBytes {
			inv.coldPtr = 0
		}
		if cfg.ChurnSlideKB > 0 {
			// Payload buffers drift through their arena at the same rate
			// as the churned heap (see the warm-half comment below).
			slide := uint64(cfg.ChurnSlideKB) << 10
			return coldBase + (inv.id*slide+inv.coldPtr)%(2*coldRegionBytes), r
		}
		return coldBase + gen*coldRegionBytes + inv.coldPtr, r
	default:
		der := &inv.p.der
		lo := der.warmLo
		half := der.warmHalf
		off := der.warmDiv.mod(r.Uint64()) &^ 7
		if r.Uint64()>>11 < der.thrHalf {
			// Persistent warm half.
			return heapBase + lo + off, r
		}
		// Churned warm half: the allocator's bump pointer slides a live
		// window of `half` bytes through a two-generation arena each
		// invocation. The default slide of one full window reproduces the
		// two alternating generations; a smaller ChurnSlideKB drifts the
		// window gradually, so a frozen snapshot of one invocation's pages
		// goes stale monotonically with age.
		slide := half
		if cfg.ChurnSlideKB > 0 {
			slide = uint64(cfg.ChurnSlideKB) << 10
		}
		return heapBase + lo + half + der.warm2Div.mod(inv.id*slide+off), r
	}
}

// FootprintBlocks walks invocation id and returns the set of unique 64 B
// instruction blocks it touches — the paper's Fig. 6a metric.
func (p *Program) FootprintBlocks(id uint64) map[uint64]struct{} {
	set := make(map[uint64]struct{}, p.CodeLines())
	inv := p.NewInvocation(id)
	for {
		in, ok := inv.Next()
		if !ok {
			return set
		}
		set[in.VAddr&^uint64(lineSize-1)] = struct{}{}
	}
}

// DynamicLength walks invocation id and returns its dynamic instruction
// count.
func (p *Program) DynamicLength(id uint64) uint64 {
	inv := p.NewInvocation(id)
	for {
		if _, ok := inv.Next(); !ok {
			return inv.Emitted()
		}
	}
}
