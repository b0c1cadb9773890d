// Package program synthesizes serverless function programs: deterministic
// generators of dynamic instruction streams with calibrated instruction
// footprints, cross-invocation commonality, branch behavior, and data access
// patterns.
//
// The paper's workloads are real containerized functions; what Jukebox and
// the characterization depend on are their *address-stream properties*
// (Sec. 2.5): per-invocation instruction footprints of 300-800 KB, ≥90 %
// Jaccard commonality between invocations, high spatial locality at ~1 KB
// code-region granularity, and short dynamic lengths. This package exposes
// each property as a constructor knob so the workload suite (package
// workload) can dial in the paper's own measurements.
//
// A program is a set of code segments laid out over a virtual code region at
// cache-line granularity. Segments are classified core (every invocation,
// fixed order), optional (per-invocation coin flip — the source of
// footprint variation), and rare (error/slow paths — the source of Jaccard
// outliers). A small dispatcher segment, standing in for the language
// runtime's event loop, is re-entered between segments. Invocations walk the
// template with a per-invocation RNG stream, so invocation k replays
// bit-identically no matter how many times it is generated.
package program

import (
	"math"

	"lukewarm/internal/cfgerr"
)

// Op classifies a dynamic instruction.
type Op uint8

// Dynamic instruction kinds.
const (
	// OpPlain is a non-memory, non-branch instruction.
	OpPlain Op = iota
	// OpLoad reads memory.
	OpLoad
	// OpStore writes memory.
	OpStore
	// OpBranch transfers (or may transfer) control.
	OpBranch
)

// Instr is one dynamic instruction delivered to the core model. The three
// addresses come first and the one-byte fields after them, so the struct
// packs into 32 bytes: the core's batch buffers hold thousands of these.
type Instr struct {
	// VAddr is the instruction's virtual address.
	VAddr uint64
	// MemAddr is the virtual effective address for OpLoad/OpStore.
	MemAddr uint64
	// Target is the actual next PC of a taken OpBranch.
	Target uint64
	// Op classifies the instruction.
	Op Op
	// DepLoad marks a load that depends on an earlier in-flight load
	// (pointer chasing); it cannot overlap with its producer.
	DepLoad bool
	// Branch fields, valid for OpBranch: Taken reports the actual outcome;
	// Cond distinguishes conditional branches from jumps/calls; Indirect
	// marks data-dependent targets (interpreter dispatch).
	Taken    bool
	Cond     bool
	Indirect bool
}

// segClass classifies template segments.
type segClass uint8

const (
	segCore segClass = iota
	segOptional
	segRare
	segDispatch
)

// segment is a contiguous run of code lines executed as a unit.
type segment struct {
	class     segClass
	firstLine int // index into the program's line address table
	numLines  int
	prob      float64 // inclusion probability for optional/rare
	loop      bool    // participates in dynamic-length padding
	kernel    bool    // lives in the kernel code region
}

// Config describes one synthetic function. The workload package provides
// per-language presets; see DESIGN.md for the calibration targets.
type Config struct {
	// Name labels the program in diagnostics.
	Name string
	// Seed determinizes layout and all invocation streams.
	Seed uint64
	// CodeKB is the target per-invocation instruction footprint in KB
	// (unique 64 B blocks × 64). Fig. 6a's measured range is 300-800 KB.
	CodeKB int
	// DynamicInstrs is the approximate dynamic instruction count per
	// invocation. Must comfortably exceed the straight-line size of the
	// footprint or the walk is truncated by construction.
	DynamicInstrs int
	// CoreFrac is the fraction of code lines in always-executed segments;
	// together with OptionalProb it sets cross-invocation commonality.
	CoreFrac float64
	// OptionalProb is the per-invocation inclusion probability of optional
	// segments.
	OptionalProb float64
	// RareFrac is the fraction of lines in rarely-executed segments.
	RareFrac float64
	// RareProb is the per-invocation inclusion probability of rare segments.
	RareProb float64
	// InstrPerLine is the number of instructions per 64 B code line
	// (64 / average instruction length). x86 averages ~4 B: 16.
	InstrPerLine int
	// LoadFrac / StoreFrac are per-instruction memory-op probabilities.
	LoadFrac, StoreFrac float64
	// CondFrac is the probability that a sequential line ends in a
	// conditional (predictable, biased) branch.
	CondFrac float64
	// CondBias is the taken probability of those conditional branches.
	CondBias float64
	// NoisyFrac is the probability that a line ends in a data-dependent
	// 50/50 conditional branch — the bad-speculation source.
	NoisyFrac float64
	// SkipFrac is the probability that a line ends in a taken conditional
	// that jumps over the following line. Skips are drawn per invocation,
	// so the block-level fetch stream diverges between invocations at fine
	// granularity — the divergence that forces temporal-streaming
	// prefetchers (PIF) to re-index while leaving footprint commonality
	// (and therefore Jukebox) nearly untouched.
	SkipFrac float64
	// IndirectFrac is the probability that a segment transfer is an
	// indirect branch (interpreter/JIT dispatch): hard for the BTB.
	IndirectFrac float64
	// CallFrac is the probability a code line ends with a call-out to a
	// short helper routine elsewhere in the footprint. Calls are assigned
	// at layout time (they are in the binary), so every invocation that
	// executes the line takes the call. They interleave distant code
	// regions in the fetch stream, which is what limits CRRB coalescing
	// and gives real functions their 10-30 KB Jukebox metadata (Fig. 8).
	CallFrac float64
	// DataKB / HotDataKB size the data working set and its hot subset.
	DataKB, HotDataKB int
	// ChurnSlideKB sets how far the allocator's live window slides through
	// the churned-heap arena per invocation, in KB. Zero selects half the
	// churned region — two alternating generations, the historical
	// default. Smaller values make the window drift gradually, so a frozen
	// snapshot of one invocation's pages (a REAP manifest) goes stale
	// monotonically with age rather than flipping between two states.
	ChurnSlideKB int
	// HotDataFrac is the probability a memory op targets the hot subset.
	HotDataFrac float64
	// ColdDataFrac is the probability a memory op streams through a large
	// cold region (request payloads); the rest hits the warm set.
	ColdDataFrac float64
	// DepLoadFrac is the fraction of loads marked dependent.
	DepLoadFrac float64
	// KernelFrac is the fraction of segments placed in the kernel code
	// region (network stack, syscalls on the invocation path).
	KernelFrac float64
}

// Validate reports a descriptive error for out-of-range configuration.
func (c Config) Validate() error {
	switch {
	case c.CodeKB < 4:
		return cfgerr.New("program %q: CodeKB %d too small", c.Name, c.CodeKB)
	case c.InstrPerLine < 1 || c.InstrPerLine > 64:
		return cfgerr.New("program %q: InstrPerLine %d out of range", c.Name, c.InstrPerLine)
	case c.DynamicInstrs < c.CodeKB*16: // one instruction per line minimum
		return cfgerr.New("program %q: DynamicInstrs %d cannot cover %d KB of code", c.Name, c.DynamicInstrs, c.CodeKB)
	case c.CoreFrac < 0 || c.CoreFrac > 1 || c.OptionalProb < 0 || c.OptionalProb > 1:
		return cfgerr.New("program %q: fractions out of [0,1]", c.Name)
	case c.CallFrac < 0 || c.CallFrac > 0.8:
		return cfgerr.New("program %q: CallFrac %v out of [0, 0.8]", c.Name, c.CallFrac)
	case c.SkipFrac < 0 || c.SkipFrac > 0.3:
		return cfgerr.New("program %q: SkipFrac %v out of [0, 0.3]", c.Name, c.SkipFrac)
	case c.LoadFrac+c.StoreFrac > 0.9:
		return cfgerr.New("program %q: memory-op fraction %v too high", c.Name, c.LoadFrac+c.StoreFrac)
	case c.DataKB <= 0 || c.HotDataKB <= 0 || c.HotDataKB > c.DataKB:
		return cfgerr.New("program %q: data sizes invalid (%d/%d KB)", c.Name, c.HotDataKB, c.DataKB)
	case c.ChurnSlideKB < 0:
		return cfgerr.New("program %q: ChurnSlideKB %d negative", c.Name, c.ChurnSlideKB)
	}
	return nil
}

// Virtual-address layout constants. Each program's regions live at these
// bases within its own address space; separate instances never share frames
// (containers do not share page cache in this model).
const (
	userCodeBase   = 0x0000_0040_0000
	kernelCodeBase = 0x7000_0000_0000
	heapBase       = 0x0000_2000_0000
	coldBase       = 0x0000_4000_0000
	lineSize       = 64
	linesPerKB     = 1024 / lineSize
)

// Program is an immutable synthetic function; invocations are generated from
// it on demand.
type Program struct {
	cfg      Config
	segments []segment
	lineAddr []uint64 // line index -> virtual address of the 64 B code line
	dispatch int      // segment index of the dispatcher
	// callTarget[i] is the absolute line index line i calls out to after
	// executing, or -1; callLen[i] is the callee length in lines.
	callTarget []int32
	callLen    []uint8
	// segStart[i] marks lines that begin a segment (indirect-branch
	// targets: dispatch sites).
	segStart []bool
	// singlePassInstrs is the expected dynamic length of one template pass,
	// used to scale loop padding toward DynamicInstrs.
	singlePassInstrs int
	// der holds values derived once from cfg so the per-instruction walker
	// does not recompute them. Each is the exact float/integer value the
	// walker previously computed inline (float addition is deterministic),
	// so hoisting them is bit-identical.
	der derived
	// loopSegs lists the loop-class segment indices in template order, the
	// padding pool buildPlanInto cycles through.
	loopSegs []int
}

// derived caches per-instruction constants of one program.
type derived struct {
	stride    uint64  // bytes between instruction slots in a line
	condTaken float64 // 1 - CondBias
	warmLo    uint64  // warm-region offset lower bound
	warmHalf  uint64  // half the warm region
	// Integer probability thresholds for the per-instruction draws:
	// RNG.Bool(p) is Float64() < p, Float64 is the exact value
	// (Uint64()>>11)/2^53, and p*2^53 is an exact float64 (power-of-two
	// scaling), so `Uint64()>>11 < ceil(p*2^53)` decides the identical
	// predicate without the int-to-float conversion and float compare.
	thrLoad      uint64 // LoadFrac
	thrLoadStore uint64 // LoadFrac + StoreFrac
	thrDepLoad   uint64 // DepLoadFrac
	thrHot       uint64 // HotDataFrac
	thrHotCold   uint64 // HotDataFrac + ColdDataFrac
	thrHalf      uint64 // 0.5 (warm-half split)
	// Fixed-divisor reducers for the effective-address generator: the
	// hot-region span, the warm half-span, and the churned-arena extent.
	// Each replaces a hardware `%` on the walker's hottest path.
	hotDiv   divider
	warmDiv  divider
	warm2Div divider
}

// probThreshold converts probability p into the integer draw threshold t
// such that Uint64()>>11 < t exactly when Float64() < p (see derived).
func probThreshold(p float64) uint64 {
	t := math.Ceil(p * (1 << 53))
	if t <= 0 {
		return 0
	}
	return uint64(t)
}

func (p *Program) deriveConstants() {
	cfg := &p.cfg
	lo := uint64(cfg.HotDataKB << 10)
	hi := uint64(cfg.DataKB << 10)
	if hi <= lo {
		hi = lo + 16
	}
	half := (hi - lo) / 2
	d := derived{
		stride:       uint64(lineSize / cfg.InstrPerLine),
		condTaken:    1 - cfg.CondBias,
		warmLo:       lo,
		warmHalf:     half,
		thrLoad:      probThreshold(cfg.LoadFrac),
		thrLoadStore: probThreshold(cfg.LoadFrac + cfg.StoreFrac),
		thrDepLoad:   probThreshold(cfg.DepLoadFrac),
		thrHot:       probThreshold(cfg.HotDataFrac),
		thrHotCold:   probThreshold(cfg.HotDataFrac + cfg.ColdDataFrac),
		thrHalf:      probThreshold(0.5),
		warmDiv:      newDivider(half),
		warm2Div:     newDivider(2 * half),
	}
	if span := cfg.HotDataKB << 10; span > 0 {
		d.hotDiv = newDivider(uint64(span))
	}
	p.der = d
	p.loopSegs = p.loopSegs[:0]
	for si := range p.segments {
		if p.segments[si].loop {
			p.loopSegs = append(p.loopSegs, si)
		}
	}
}

// New builds a program from cfg. It panics on invalid configuration —
// configurations are compiled into the workload suite, so an invalid one is
// a programming error. Callers building programs from user input should use
// NewErr instead.
func New(cfg Config) *Program {
	p, err := NewErr(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// NewErr builds a program from cfg, returning a validation error (wrapping
// cfgerr.ErrBadConfig) instead of panicking on bad configuration.
func NewErr(cfg Config) (*Program, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Program{cfg: cfg}
	p.layout()
	p.singlePassInstrs = p.expectedPassInstrs()
	p.deriveConstants()
	return p, nil
}

// layout partitions the code footprint into segments and assigns virtual
// addresses. Layout randomness comes from the program seed only, never from
// invocation streams: the code of a deployed function does not move between
// invocations.
func (p *Program) layout() {
	rng := NewRNG(Mix(p.cfg.Seed, 0xC0DE))
	totalLines := p.cfg.CodeKB * linesPerKB

	// Dispatcher: a small, very hot segment (runtime event loop).
	dispatchLines := 8 + rng.Intn(8)

	remaining := totalLines - dispatchLines
	coreLines := int(float64(remaining) * p.cfg.CoreFrac)
	rareLines := int(float64(remaining) * p.cfg.RareFrac)
	optLines := remaining - coreLines - rareLines

	nextLine := 0
	userVA := uint64(userCodeBase)
	kernelVA := uint64(kernelCodeBase)
	addSegment := func(class segClass, n int, prob float64, kernel bool) {
		if n <= 0 {
			return
		}
		base := &userVA
		if kernel {
			base = &kernelVA
		}
		// Pad segment starts for alignment realism: 0-3 dead lines.
		*base += uint64(rng.Intn(4) * lineSize)
		seg := segment{class: class, firstLine: nextLine, numLines: n, prob: prob, kernel: kernel}
		for i := 0; i < n; i++ {
			p.lineAddr = append(p.lineAddr, *base)
			*base += lineSize
		}
		nextLine += n
		p.segments = append(p.segments, seg)
	}

	addSegment(segDispatch, dispatchLines, 1, false)
	p.dispatch = len(p.segments) - 1

	carve := func(class segClass, budget int, probFor func() float64) {
		for budget > 0 {
			n := rng.Range(8, 64) // 0.5-4 KB routines
			if n > budget {
				n = budget
			}
			kernel := rng.Bool(p.cfg.KernelFrac)
			addSegment(class, n, probFor(), kernel)
			budget -= n
		}
	}
	carve(segCore, coreLines, func() float64 { return 1 })
	carve(segOptional, optLines, func() float64 {
		// Spread around the configured probability for texture.
		d := p.cfg.OptionalProb + float64((float64(rng.Float64())-0.5)*0.2)
		if d < 0.05 {
			d = 0.05
		}
		if d > 0.98 {
			d = 0.98
		}
		return d
	})
	carve(segRare, rareLines, func() float64 { return p.cfg.RareProb })

	// Mark a subset of core segments as loop bodies for dynamic-length
	// padding (the handler's compute kernels).
	loops := 0
	for i := range p.segments {
		if p.segments[i].class == segCore && rng.Bool(0.3) {
			p.segments[i].loop = true
			loops++
		}
	}
	if loops == 0 { // guarantee at least one
		for i := range p.segments {
			if p.segments[i].class == segCore {
				p.segments[i].loop = true
				break
			}
		}
	}

	p.assignCalls(rng)
}

// assignCalls wires call-outs from code lines to short helper routines in
// other segments. The wiring is part of the layout: a line that calls a
// helper does so on every execution.
func (p *Program) assignCalls(rng *RNG) {
	n := len(p.lineAddr)
	p.callTarget = make([]int32, n)
	p.callLen = make([]uint8, n)
	p.segStart = make([]bool, n)
	for i := range p.callTarget {
		p.callTarget[i] = -1
	}
	for _, s := range p.segments {
		p.segStart[s.firstLine] = true
	}
	if p.cfg.CallFrac <= 0 || len(p.segments) < 3 {
		return
	}
	// Callees are helper routines in always-executed (core) code — library
	// and runtime functions. Restricting targets to core segments keeps the
	// optional segments' per-invocation inclusion the sole driver of
	// footprint variation.
	var coreSegs []int
	for si, s := range p.segments {
		if s.class == segCore && si != p.dispatch {
			coreSegs = append(coreSegs, si)
		}
	}
	if len(coreSegs) < 2 {
		return
	}
	for si, s := range p.segments {
		if si == p.dispatch {
			continue
		}
		for l := 0; l < s.numLines; l++ {
			if !rng.Bool(p.cfg.CallFrac) {
				continue
			}
			// Pick a callee segment other than the caller.
			ti := coreSegs[rng.Intn(len(coreSegs))]
			if ti == si {
				continue
			}
			t := &p.segments[ti]
			callLen := rng.Range(1, 4)
			if callLen > t.numLines {
				callLen = t.numLines
			}
			start := rng.Intn(t.numLines - callLen + 1)
			abs := s.firstLine + l
			p.callTarget[abs] = int32(t.firstLine + start)
			p.callLen[abs] = uint8(callLen)
		}
	}
}

// callExpansion is the expected dynamic multiplier from call-outs.
//
// Here and wherever this package adds a float product, the product is
// wrapped in an explicit float64 conversion. The Go spec lets a compiler
// fuse x*y + z into one fused multiply-add, which rounds once where amd64
// rounds twice, and arm64 does; the conversion forces the rounding, so plan
// lengths, layouts and with them every instruction stream are the same on
// every GOARCH. CI's FMA gate checks the compiled arm64 code.
func (p *Program) callExpansion() float64 {
	return 1 + float64(p.cfg.CallFrac*2.5) // mean callee length is 2.5 lines
}

// expectedPassInstrs estimates dynamic instructions in one template pass
// with expected optional inclusion.
func (p *Program) expectedPassInstrs() int {
	per := p.cfg.InstrPerLine
	total := 0.0
	for _, s := range p.segments {
		total += float64(float64(s.numLines*per) * s.prob * p.callExpansion())
	}
	// Dispatcher re-entry between segments.
	d := p.segments[p.dispatch]
	total += float64(float64(len(p.segments)) * float64(d.numLines*per) * 0.25)
	return int(total)
}

// Config returns the program's configuration.
func (p *Program) Config() Config { return p.cfg }

// CodeLines reports the total number of code lines across all segments.
func (p *Program) CodeLines() int { return len(p.lineAddr) }

// StaticFootprintBytes reports the laid-out code size in bytes.
func (p *Program) StaticFootprintBytes() int { return len(p.lineAddr) * lineSize }

// NumSegments reports the number of segments (including the dispatcher).
func (p *Program) NumSegments() int { return len(p.segments) }
