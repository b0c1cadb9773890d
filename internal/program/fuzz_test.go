package program

import (
	"runtime"
	"testing"
)

// maxCanonical is the x86-64 canonical-address ceiling the generator's
// layout must stay under.
const maxCanonical = uint64(1) << 48

// fuzzConfig maps raw fuzz inputs onto a valid Config: every knob is scaled
// into its documented range, sizes are clamped so a single walk stays
// test-speed. The mapping is surjective enough that the fuzzer can reach
// every structural regime (kernel-heavy, call-heavy, skip-heavy, indirect).
func fuzzConfig(seed uint64, codeKB uint16, dyn uint32,
	core, opt, rare, call, skip, load, cond, ind byte) Config {
	frac := func(b byte) float64 { return float64(b) / 255 }
	ck := 4 + int(codeKB)%252 // 4..255 KB
	dn := int(dyn) % 200_000
	if dn < ck*16 {
		dn = ck * 16
	}
	dataKB := 8 + int(seed)%120
	return Config{
		Name:          "fuzz",
		Seed:          seed,
		CodeKB:        ck,
		DynamicInstrs: dn,
		CoreFrac:      frac(core),
		OptionalProb:  frac(opt),
		RareFrac:      frac(rare) * 0.5,
		RareProb:      frac(rare) * 0.2,
		InstrPerLine:  1 + int(seed>>8)%64,
		LoadFrac:      frac(load) * 0.55,
		StoreFrac:     frac(load) * 0.3,
		CondFrac:      frac(cond),
		CondBias:      0.9,
		NoisyFrac:     frac(cond) * 0.2,
		SkipFrac:      frac(skip) * 0.3,
		IndirectFrac:  frac(ind),
		CallFrac:      frac(call) * 0.8,
		DataKB:        dataKB,
		HotDataKB:     1 + int(seed>>16)%dataKB,
		HotDataFrac:   0.8,
		ColdDataFrac:  0.1,
		DepLoadFrac:   0.3,
		KernelFrac:    frac(ind) * 0.5,
	}
}

// FuzzProgramWalk asserts the synthetic-program generator is total and
// well-formed for any in-range configuration: every invocation walk
// terminates within a linear bound, replays bit-identically for the same id,
// matches DynamicLength, and emits only canonical addresses with memory
// operands in the data regions. The batch walkers (WalkBatch and
// NextBatch) yield exactly the Next stream, and WalkBatch's events
// strictly increase and include every line start, line end, load and
// store. A walked-ahead record of a stream that fits one replays exactly
// the WalkBatch stream, and a record is never replayed for another id or
// program.
func FuzzProgramWalk(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint32(50_000),
		byte(128), byte(128), byte(64), byte(40), byte(30), byte(120), byte(100), byte(20))
	f.Add(uint64(42), uint16(4), uint32(0),
		byte(255), byte(0), byte(0), byte(0), byte(0), byte(0), byte(0), byte(0)) // minimal, branch-free
	f.Add(uint64(7), uint16(255), uint32(199_999),
		byte(0), byte(255), byte(255), byte(204), byte(255), byte(255), byte(255), byte(255)) // every knob maxed
	f.Add(uint64(0xdeadbeef), uint16(32), uint32(10_000),
		byte(64), byte(32), byte(16), byte(8), byte(4), byte(2), byte(1), byte(128))
	// Short streams, which fit a record: 32 instructions a line (long gaps
	// between events) and 3 a line (a stride that does not divide the
	// line), both with kernel code.
	f.Add(uint64(31<<8), uint16(4), uint32(1000),
		byte(200), byte(128), byte(64), byte(0), byte(60), byte(200), byte(150), byte(255))
	f.Add(uint64(2<<8|5), uint16(8), uint32(2000),
		byte(128), byte(128), byte(128), byte(128), byte(128), byte(128), byte(128), byte(200))

	f.Fuzz(func(t *testing.T, seed uint64, codeKB uint16, dyn uint32,
		core, opt, rare, call, skip, load, cond, ind byte) {
		cfg := fuzzConfig(seed, codeKB, dyn, core, opt, rare, call, skip, load, cond, ind)
		p, err := NewErr(cfg)
		if err != nil {
			t.Fatalf("fuzzConfig produced an invalid config: %v\n%+v", err, cfg)
		}

		// The walk must terminate well within a linear bound of the
		// configured dynamic size. The plan always includes one full pass
		// over the template, so the footprint itself (lines × InstrPerLine,
		// times the ≤ 1+0.8·4 call expansion) is part of the bound, not just
		// DynamicInstrs.
		bound := 2*uint64(cfg.DynamicInstrs) +
			5*uint64(cfg.CodeKB*16*cfg.InstrPerLine) + 100_000
		inv := p.NewInvocation(seed)
		var n uint64
		for {
			in, ok := inv.Next()
			if !ok {
				break
			}
			n++
			if n > bound {
				t.Fatalf("walk exceeded %d instructions (DynamicInstrs %d)", bound, cfg.DynamicInstrs)
			}
			if in.VAddr == 0 || in.VAddr >= maxCanonical {
				t.Fatalf("instr %d: non-canonical PC %#x", n, in.VAddr)
			}
			switch in.Op {
			case OpLoad, OpStore:
				if in.MemAddr < heapBase || in.MemAddr >= maxCanonical {
					t.Fatalf("instr %d: memory operand %#x outside data regions", n, in.MemAddr)
				}
			case OpBranch:
				if in.Taken && (in.Target == 0 || in.Target >= maxCanonical) {
					t.Fatalf("instr %d: taken branch with bad target %#x", n, in.Target)
				}
			}
		}
		if n == 0 {
			t.Fatal("walk emitted no instructions")
		}
		if dl := p.DynamicLength(seed); dl != n {
			t.Fatalf("DynamicLength(%d) = %d, walk emitted %d", seed, dl, n)
		}

		// Replay determinism: the same id yields the same stream.
		a, b := p.NewInvocation(seed), p.NewInvocation(seed)
		for i := uint64(0); ; i++ {
			ia, oka := a.Next()
			ib, okb := b.Next()
			if oka != okb || ia != ib {
				t.Fatalf("instr %d: replay diverged: %+v vs %+v", i, ia, ib)
			}
			if !oka {
				break
			}
		}

		checkBatchWalk(t, p, seed, 1+int(seed%1031))
		checkRecord(t, p, seed, 1+int(seed>>20%1031))
	})
}

// checkRecord checks a record of invocation id of p against the walk:
// replayed in size-instruction batches it yields the same n, the same
// events and the same instruction at every event index as WalkBatch, and
// its Next yields the Next stream. Only a stream longer than a record may
// fail to fit one. A record is not replayed for the next id, nor for the
// same id of another program.
func checkRecord(t *testing.T, p *Program, id uint64, size int) {
	t.Helper()
	r := record{p: p, id: id}
	if !r.fill(new(walkScratch)) {
		if l := p.DynamicLength(id); l <= recordLen {
			t.Fatalf("a %d-instruction stream did not fit a record", l)
		}
		return
	}
	w, rp := p.NewInvocation(id), replay{r: &r}
	buf, ev := make([]Instr, size), make([]uint16, size)
	rbuf, rev := make([]Instr, size), make([]uint16, size)
	var at int
	for n := size; n == size; at += n {
		var ne int
		n, ne = w.WalkBatch(buf, ev)
		rn, rne := rp.WalkBatch(rbuf, rev)
		if rn != n || rne != ne {
			t.Fatalf("batch at instr %d: replay gave %d instructions and %d events, the walk %d and %d", at, rn, rne, n, ne)
		}
		for k, i := range ev[:ne] {
			if rev[k] != i || rbuf[i] != buf[i] {
				t.Fatalf("batch at instr %d, event %d: replay gave index %d %+v, the walk index %d %+v", at, k, rev[k], rbuf[rev[k]], i, buf[i])
			}
		}
	}
	ref, rp := p.NewInvocation(id), replay{r: &r}
	for i := 0; ; i++ {
		want, wok := ref.Next()
		got, gok := rp.Next()
		if got != want || gok != wok {
			t.Fatalf("instr %d: replay Next gave %+v (ok %v), the walk %+v (ok %v)", i, got, gok, want, wok)
		}
		if !wok {
			break
		}
	}

	other := *p // the same program at another address
	for _, c := range []struct {
		p  *Program
		id uint64
	}{{p, id + 1}, {&other, id}} {
		if startWithTicket(t, p, id, c.p, c.id) {
			t.Fatalf("a record of (%p, %d) was replayed for (%p, %d)", p, id, c.p, c.id)
		}
	}
	if p.short() && runtime.GOMAXPROCS(0) > 1 && !startWithTicket(t, p, id, p, id) {
		t.Fatal("a ready record was not replayed for its own program and id")
	}
}

// checkBatchWalk checks WalkBatch, in size-instruction batches, and
// NextBatch, in batches past its scratch size, against the Next stream of
// invocation id, and WalkBatch's events against the contract.
func checkBatchWalk(t *testing.T, p *Program, id uint64, size int) {
	t.Helper()
	ref, w := p.NewInvocation(id), p.NewInvocation(id)
	buf, ev := make([]Instr, size), make([]uint16, size)
	lineEnd := uint64(p.cfg.InstrPerLine-1) * p.der.stride
	var at uint64
	for n := size; n == size; {
		var ne int
		n, ne = w.WalkBatch(buf, ev)
		e := 0
		for i, in := range buf[:n] {
			if want, ok := ref.Next(); !ok || in != want {
				t.Fatalf("instr %d: WalkBatch yielded %+v, Next %+v (ok %v)", at, in, want, ok)
			}
			isEvent := e < ne && int(ev[e]) == i
			if isEvent {
				e++
			}
			off := in.VAddr & (lineSize - 1)
			if (off == 0 || off == lineEnd || in.Op == OpLoad || in.Op == OpStore) && !isEvent {
				t.Fatalf("instr %d (%+v, line offset %d): not an event", at, in, off)
			}
			at++
		}
		if e != ne {
			t.Fatalf("batch ending at instr %d: events %v are not strictly increasing indices below %d", at, ev[:ne], n)
		}
	}
	if in, ok := ref.Next(); ok {
		t.Fatalf("instr %d: WalkBatch ended early; Next still yields %+v", at, in)
	}

	ref, nb := p.NewInvocation(id), p.NewInvocation(id)
	buf = make([]Instr, 2*len(nb.evScratch)+3)
	at = 0
	for n := len(buf); n == len(buf); {
		n = nb.NextBatch(buf)
		for _, in := range buf[:n] {
			if want, ok := ref.Next(); !ok || in != want {
				t.Fatalf("instr %d: NextBatch yielded %+v, Next %+v (ok %v)", at, in, want, ok)
			}
			at++
		}
	}
	if in, ok := ref.Next(); ok {
		t.Fatalf("instr %d: NextBatch ended early; Next still yields %+v", at, in)
	}
}
