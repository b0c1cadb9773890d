package program

// recordLen is the longest stream a record holds. Event positions are
// uint16s, so it must stay at most 1<<16.
const recordLen = 4096

// short reports whether p's streams are short enough to walk ahead: its
// plan's one template pass and its padding target both fit a record. A
// stream that still overruns one is walked inline at dispatch.
func (p *Program) short() bool {
	return max(p.singlePassInstrs, p.cfg.DynamicInstrs) <= recordLen
}

// A record's event word: the event's distance from the previous event (at
// most InstrPerLine-1, as every line's first and last instructions are
// events), its Op, its flags, and where its VAddr and arg come from.
const (
	recGap      = 1<<6 - 1 // bits 0-5: positions since the previous event
	recOpShift  = 6        // bits 6-7: the Op
	recDep      = 1 << 8   // Instr.DepLoad
	recTaken    = 1 << 9   // Instr.Taken
	recCond     = 1 << 10  // Instr.Cond
	recIndirect = 1 << 11  // Instr.Indirect
	// recJump marks an event whose VAddr is not where the previous event
	// predicts; its VAddr comes first in arg.
	recJump = 1 << 12
	// recJumpHi and recArgHi mark a jump's VAddr and a branch's Target as
	// kernel code (see pushArg).
	recJumpHi = 1 << 13
	recArgHi  = 1 << 14
)

// record is invocation id of p walked ahead of its dispatch, kept compact:
// only the stream's events (line starts, line ends, loads and stores), in
// stream order. Every instruction's VAddr continues the previous event's
// at the program's instruction stride, so a record stores a VAddr only
// where that prediction fails (a taken branch, a new segment); plain
// instructions between events are implied by their positions.
type record struct {
	p  *Program
	id uint64
	// n is the stream's length.
	n int
	// ev holds each event's word.
	ev []uint16
	// arg holds, in event order, each jump's VAddr, then each load's or
	// store's MemAddr and each branch's Target, as one or two uint16s (see
	// pushArg).
	arg []uint16
}

// walkScratch is what fill walks a stream into, a chunk at a time, and
// encodes it in.
type walkScratch struct {
	inv Invocation
	buf [1024]Instr
	ev  [1024]uint16
	rec record
}

// fill walks r.p's invocation r.id into r and reports whether the whole
// stream fit. It encodes the stream in w's record, whose buffers grow to the
// longest stream walked, and copies it into r, so r's buffers hold no more
// than the streams r has held need.
func (r *record) fill(w *walkScratch) bool {
	t := &w.rec
	t.p, t.id = r.p, r.id
	if !t.walk(w) {
		return false
	}
	r.n = t.n
	r.ev = append(r.ev[:0], t.ev...)
	r.arg = append(r.arg[:0], t.arg...)
	return true
}

// walk walks r.p's invocation r.id into r itself and reports whether the
// whole stream fit. A panic in the walk is recovered and reported as a
// stream that did not fit: the dispatch that wanted r then walks inline and
// raises the same panic on its own goroutine.
func (r *record) walk(w *walkScratch) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	r.n, r.ev, r.arg = 0, r.ev[:0], r.arg[:0]
	r.p.ResetInvocation(&w.inv, r.id)
	stride := r.p.der.stride
	var va uint64 // the last event's VAddr, at stream position last
	last := 0
	for {
		n, ne := w.inv.WalkBatch(w.buf[:], w.ev[:])
		if r.n+n > recordLen {
			return false
		}
		for _, i := range w.ev[:ne] {
			in := &w.buf[int(i)&(len(w.buf)-1)]
			pos := r.n + int(i)
			if pos-last > recGap {
				return false
			}
			word := uint16(pos-last) | uint16(in.Op)<<recOpShift
			if in.VAddr != va+uint64(pos-last)*stride {
				word |= recJump
				if !r.pushArg(in.VAddr, true, &word, recJumpHi) {
					return false
				}
			}
			va, last = in.VAddr, pos
			arg := in.MemAddr
			if in.Op == OpBranch {
				arg = in.Target
			}
			if in.Op != OpPlain && !r.pushArg(arg, in.Op == OpBranch, &word, recArgHi) {
				return false
			}
			if in.DepLoad {
				word |= recDep
			}
			if in.Taken {
				word |= recTaken
			}
			if in.Cond {
				word |= recCond
			}
			if in.Indirect {
				word |= recIndirect
			}
			r.ev = append(r.ev, word)
		}
		r.n += n
		if n < len(w.buf) {
			return true
		}
	}
}

// pushArg appends address v to r.arg as its offset from its region's base:
// kernel code from kernelCodeBase, which sets hi in *word, other code from
// userCodeBase, data from heapBase. An offset below 1<<15 takes one uint16;
// one below 1<<31 takes two, the first with its top bit set. pushArg
// reports false for an address neither fits.
func (r *record) pushArg(v uint64, code bool, word *uint16, hi uint16) bool {
	base := uint64(heapBase)
	if code {
		base = userCodeBase
		if v >= kernelCodeBase {
			base = kernelCodeBase
			*word |= hi
		}
	}
	switch x := v - base; {
	case x < 1<<15:
		r.arg = append(r.arg, uint16(x))
	case x < 1<<31:
		r.arg = append(r.arg, uint16(x>>16)|1<<15, uint16(x))
	default:
		return false
	}
	return true
}

// codeBase is the base pushArg stored a code address from, hi its flag in
// word.
func codeBase(word, hi uint16) uint64 {
	if word&hi != 0 {
		return kernelCodeBase
	}
	return userCodeBase
}

// popArg returns the offset pushArg stored at arg[a] and the index of the
// next arg.
func popArg(arg []uint16, a int) (uint64, int) {
	if u := arg[a]; u>>15 == 0 {
		return uint64(u), a + 1
	}
	return uint64(arg[a]&^(1<<15))<<16 | uint64(arg[a+1]), a + 2
}

// replay is a stream source over a filled record: exactly the stream the walk
// yields, event for event. WalkBatch writes only the events into buf and
// leaves a plain instruction's slot as it was, because the core reads
// events only; Next yields every instruction.
type replay struct {
	r *record
	// at is the stream position of the next instruction, e the next event
	// and a the next arg.
	at, e, a int
	// va is the VAddr of the last event, at stream position last.
	va   uint64
	last int
}

// WalkBatch is Invocation.WalkBatch over the record, except that only the
// events are written into buf.
//
//lukewarm:hotpath noalloc,noescape replaces the walk on every walked-ahead dispatch
func (rp *replay) WalkBatch(buf []Instr, ev []uint16) (n, ne int) {
	r := rp.r
	n = min(len(buf), r.n-rp.at)
	base, end := rp.at, rp.at+n
	e, a, va, last := rp.e, rp.a, rp.va, rp.last
	stride, words, arg := r.p.der.stride, r.ev, r.arg
	ev = ev[:n]
	for ; e < len(words); e++ {
		word := words[e]
		at := last + int(word&recGap)
		if at >= end {
			break
		}
		if word&recJump != 0 {
			va, a = popArg(arg, a)
			va += codeBase(word, recJumpHi)
		} else {
			va += uint64(at-last) * stride
		}
		last = at
		in := &buf[at-base]
		in.VAddr, in.MemAddr, in.Target = va, 0, 0
		in.Op = Op(word >> recOpShift & 3)
		in.DepLoad = word&recDep != 0
		in.Taken = word&recTaken != 0
		in.Cond = word&recCond != 0
		in.Indirect = word&recIndirect != 0
		switch in.Op {
		case OpLoad, OpStore:
			in.MemAddr, a = popArg(arg, a)
			in.MemAddr += heapBase
		case OpBranch:
			in.Target, a = popArg(arg, a)
			in.Target += codeBase(word, recArgHi)
		}
		ev[ne] = uint16(at - base)
		ne++
	}
	rp.at, rp.e, rp.a, rp.va, rp.last = end, e, a, va, last
	return n, ne
}

// Next yields the stream's next instruction; ok is false at its end.
func (rp *replay) Next() (in Instr, ok bool) {
	var buf [1]Instr
	var ev [1]uint16
	n, ne := rp.WalkBatch(buf[:], ev[:])
	switch {
	case n == 0:
		return Instr{}, false
	case ne == 0: // a plain instruction, on the last event's line
		return Instr{VAddr: rp.va + uint64(rp.at-1-rp.last)*rp.r.p.der.stride}, true
	}
	return buf[0], true
}
