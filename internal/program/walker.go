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
	rng  RNG
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

	emitted  uint64
	coldPtr  uint64
	prevLoad bool
	done     bool
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
	*inv = Invocation{p: p, id: id, rng: *NewRNG(Mix(p.cfg.Seed, Mix(0x1907, id)))}
	inv.plan = p.buildPlanInto(plan, &inv.rng)
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
		est += float64(p.segments[si].numLines) * per * mul
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
// how many were produced; 0 means the stream has ended. The stream is
// exactly the one repeated Next calls yield — same instructions, same RNG
// consumption — so the core's batched fast path is bit-identical to the
// per-instruction one (internal/check's differential tests enforce this).
//
// The body inlines Next's common case — a non-terminal instruction of the
// current code line, which needs no control-transfer decision — and falls
// back to Next itself for line-terminal instructions, so the two paths
// share the control-transfer logic rather than duplicating it.
//
//lukewarm:hotpath noalloc,noescape the batched generator feeds the core's fetch loop; PR 9's 1.3x lives here
func (inv *Invocation) NextBatch(buf []Instr) int {
	p := inv.p
	last := p.cfg.InstrPerLine - 1
	stride := p.der.stride
	n := 0
	for n < len(buf) && !inv.done {
		if inv.instr != last {
			in := &buf[n]
			*in = Instr{VAddr: p.lineAddr[inv.cur] + uint64(inv.instr)*stride}
			inv.emitted++
			inv.emitOp(in)
			inv.instr++
			n++
			continue
		}
		in, ok := inv.Next()
		if !ok {
			break
		}
		buf[n] = in
		n++
	}
	return n
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
		inv.emitOp(&in)
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
				in.Indirect = inv.rng.Bool(cfg.IndirectFrac)
			}
		} else if inv.rng.Bool(cfg.SkipFrac) {
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
		} else if inv.rng.Bool(cfg.NoisyFrac) {
			// Data-dependent 50/50 conditional: the bad-speculation
			// source. Both outcomes continue at the sequential next line
			// (the taken path targets the if-body starting there).
			in.Op = OpBranch
			in.Cond = true
			in.Taken = inv.rng.Bool(0.5)
			in.Target = nextAddr
		} else if inv.rng.Bool(cfg.CondFrac) {
			// Biased, learnable conditional.
			in.Op = OpBranch
			in.Cond = true
			in.Taken = inv.rng.Bool(inv.p.der.condTaken)
			in.Target = nextAddr
		} else {
			inv.emitOp(&in)
		}
	}

	// Advance the lookahead window.
	inv.instr = 0
	inv.cur = inv.next
	inv.next, inv.haveNext = inv.advanceLine()
	return in, true
}

// emitOp fills in a non-control instruction: plain, load, or store, with a
// generated effective address.
//
//lukewarm:hotpath noalloc,noescape,nobce runs once per generated instruction; threshold compares only
func (inv *Invocation) emitOp(in *Instr) {
	der := &inv.p.der
	u := inv.rng.Uint64() >> 11
	switch {
	case u < der.thrLoad:
		in.Op = OpLoad
		in.MemAddr = inv.dataAddr()
		if inv.prevLoad && inv.rng.Uint64()>>11 < der.thrDepLoad {
			in.DepLoad = true
		}
		inv.prevLoad = true
		return
	case u < der.thrLoadStore:
		in.Op = OpStore
		in.MemAddr = inv.dataAddr()
	default:
		in.Op = OpPlain
	}
	inv.prevLoad = false
}

// coldRegionBytes bounds the per-invocation streaming region (request
// payload buffers), reused across invocations.
const coldRegionBytes = 256 << 10

// dataAddr generates one effective address from the hot/warm/cold mix.
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
func (inv *Invocation) dataAddr() uint64 {
	cfg := &inv.p.cfg
	gen := inv.id & 1
	u := inv.rng.Uint64() >> 11
	switch {
	case u < inv.p.der.thrHot:
		return heapBase + inv.p.der.hotDiv.mod(inv.rng.Uint64())&^7
	case u < inv.p.der.thrHotCold:
		inv.coldPtr += lineSize
		if inv.coldPtr >= coldRegionBytes {
			inv.coldPtr = 0
		}
		if cfg.ChurnSlideKB > 0 {
			// Payload buffers drift through their arena at the same rate
			// as the churned heap (see the warm-half comment below).
			slide := uint64(cfg.ChurnSlideKB) << 10
			return coldBase + (inv.id*slide+inv.coldPtr)%(2*coldRegionBytes)
		}
		return coldBase + gen*coldRegionBytes + inv.coldPtr
	default:
		der := &inv.p.der
		lo := der.warmLo
		half := der.warmHalf
		off := der.warmDiv.mod(inv.rng.Uint64()) &^ 7
		if inv.rng.Uint64()>>11 < der.thrHalf {
			// Persistent warm half.
			return heapBase + lo + off
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
		return heapBase + lo + half + der.warm2Div.mod(inv.id*slide+off)
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
