package cpu

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"lukewarm/internal/core"
	"lukewarm/internal/mem"
	"lukewarm/internal/pif"
	"lukewarm/internal/program"
	"lukewarm/internal/reap"
	"lukewarm/internal/vm"
	"lukewarm/internal/workload"
)

// runStaged is RunInvocation with the two stages run back to back on the
// calling goroutine, batch by batch: the reference the pipeline must match.
func runStaged(c *Core, src InstrSource) RunResult {
	var acc tdAcc
	m := c.begin()
	var fe frontEnd
	fe.start(c.MMU, src)
	var b batch
	var n uint64
	for {
		k := fe.fill(&b, batchLen)
		c.execBatch(&b, &acc)
		n += uint64(k)
		if k < batchLen {
			break
		}
	}
	return c.end(m, &acc, n)
}

// truncated yields the first rem instructions of an invocation, keeping
// its bulk-delivery side.
type truncated struct {
	inv *program.Invocation
	rem int
}

func (t *truncated) Next() (program.Instr, bool) {
	if t.rem == 0 {
		return program.Instr{}, false
	}
	in, ok := t.inv.Next()
	if ok {
		t.rem--
	}
	return in, ok
}

func (t *truncated) WalkBatch(buf []program.Instr, ev []uint16) (int, int) {
	buf = buf[:min(len(buf), t.rem)]
	n, ne := t.inv.WalkBatch(buf, ev)
	t.rem -= n
	return n, ne
}

// stageFingerprint captures every counter an invocation can move: the
// result, the clock, every cache level, DRAM, both TLBs, the walker, the
// branch predictor, the BTB and the prefetcher's own statistics.
func stageFingerprint(c *Core, res RunResult, pf fmt.Stringer) string {
	h := c.Hier
	s := fmt.Sprintf("res=%+v now=%d l1i=%+v l1d=%+v l2=%+v llc=%+v dram=%+v pfbuf=%+v "+
		"itlb=%+v dtlb=%+v walks=%d/%d bp=%+v btb=%+v",
		res, c.Now(), h.L1I.Stats, h.L1D.Stats, h.L2.Stats, h.LLC.Stats, *h.DRAM, h.PFBuf,
		c.MMU.ITLB.Stats, c.MMU.DTLB.Stats, c.MMU.Walker.Walks, c.MMU.Walker.ColdWalks,
		c.BP.Stats, c.BTB.Stats)
	if pf != nil {
		s += " pf=" + pf.String()
	}
	return s
}

// stageRig is one core with its warm-up mechanisms, built identically for
// the staged reference and the pipelined run.
type stageRig struct {
	c     *Core
	flush bool
	pf    fmt.Stringer
}

type mechStats struct {
	jb *core.Jukebox
	rp *reap.Reap
	pf *pif.PIF
}

func (m mechStats) String() string {
	s := ""
	if m.jb != nil {
		s += fmt.Sprintf("jb=%+v ", m.jb.Stats)
	}
	if m.rp != nil {
		s += fmt.Sprintf("reap=%+v ", m.rp.Stats)
	}
	if m.pf != nil {
		s += fmt.Sprintf("pif=%+v", m.pf.Stats)
	}
	return s
}

// newStageRig builds a core in one of the three regimes: "warm" (no
// mechanism, no flush), "jbreap" (flushed before every invocation, REAP
// then Jukebox) and "pif" (PIF, no flush).
func newStageRig(regime string) *stageRig {
	c := NewCore(SkylakeConfig())
	alloc := vm.NewFrameAllocator(0)
	c.MMU.SetAddressSpace(vm.NewAddressSpace(alloc))
	r := &stageRig{c: c}
	switch regime {
	case "jbreap":
		rp := reap.New(reap.DefaultConfig(), c.Hier, c.MMU)
		jb := core.New(core.DefaultConfig(), c.Hier, c.MMU, alloc)
		c.Prefetcher = MultiPrefetcher{rp, jb}
		r.flush, r.pf = true, mechStats{jb: jb, rp: rp}
	case "pif":
		p := pif.New(pif.DefaultConfig(), c.Hier)
		c.Prefetcher = p
		r.pf = mechStats{pf: p}
	}
	return r
}

func (r *stageRig) invoke(src InstrSource, staged bool) string {
	if r.flush {
		r.c.FlushMicroarch()
	}
	var res RunResult
	if staged {
		res = runStaged(r.c, src)
	} else {
		res = r.c.RunInvocation(src)
	}
	return stageFingerprint(r.c, res, r.pf)
}

// TestStagesMatchPipeline holds RunInvocation — inline chunks for a
// stream's first inlineLen instructions, a stage-1 goroutine for the rest —
// bit-identical to running stage 1 then stage 2 on one goroutine a whole
// batch at a time, around every chunk and batch boundary and on real suite
// functions in each warm-up regime. On the suite functions it also holds
// the walker's event list bit-identical to a Next-only source, where every
// instruction is an event.
func TestStagesMatchPipeline(t *testing.T) {
	p := testProgram()
	for _, n := range []int{0, 1, chunkLen, chunkLen + 1, batchLen - 1, batchLen, batchLen + 1, inlineLen, inlineLen + 1, 3 * batchLen, 3*batchLen + 1} {
		for _, bulk := range []bool{true, false} {
			t.Run(fmt.Sprintf("len=%d/bulk=%v", n, bulk), func(t *testing.T) {
				src := func() InstrSource {
					tr := &truncated{inv: p.NewInvocation(3), rem: n}
					if bulk {
						return tr
					}
					return nextOnly{tr}
				}
				ref, got := newStageRig("warm"), newStageRig("warm")
				for i := 0; i < 2; i++ {
					want, have := ref.invoke(src(), true), got.invoke(src(), false)
					if have != want {
						t.Fatalf("invocation %d diverged:\npipelined: %s\nstaged:    %s", i, have, want)
					}
				}
			})
		}
	}

	invocations := 3
	if testing.Short() {
		invocations = 2
	}
	for _, name := range []string{"Auth-G", "Email-P"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, regime := range []string{"warm", "jbreap", "pif"} {
			t.Run(name+"/"+regime, func(t *testing.T) {
				// The Next-only rig marks every instruction an event, the
				// others get the walker's events.
				ref, got, each := newStageRig(regime), newStageRig(regime), newStageRig(regime)
				for id := uint64(0); id < uint64(invocations); id++ {
					want := ref.invoke(w.Program.NewInvocation(id), true)
					have := got.invoke(w.Program.NewInvocation(id), false)
					if have != want {
						t.Fatalf("invocation %d diverged:\npipelined: %s\nstaged:    %s", id, have, want)
					}
					if all := each.invoke(nextOnly{w.Program.NewInvocation(id)}, false); all != want {
						t.Fatalf("invocation %d diverged:\nevery instruction an event: %s\nwalker events:              %s", id, all, want)
					}
				}
			})
		}
	}
}

// panicsWith runs f and returns the value it panicked with, nil if none.
func panicsWith(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// waitGoroutines waits briefly for the goroutine count to fall back to n: a
// stage-1 goroutine that has sent its last batch may not have exited yet.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < 100 && runtime.NumGoroutine() > n; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > n {
		t.Fatalf("%d goroutines left running, want %d", got, n)
	}
}

// TestPipelinePanicReachesCaller pins that a long stream on an MMU with no
// address space panics on the calling goroutine with the MMU's own message.
func TestPipelinePanicReachesCaller(t *testing.T) {
	c := NewCore(SkylakeConfig())
	v := panicsWith(func() { c.RunInvocation(testProgram().NewInvocation(0)) })
	if v != "vm: MMU has no active address space" {
		t.Fatalf("panic value %v, want the MMU's no-address-space message", v)
	}
}

// midStreamPanic panics once the core has asked it for more than at
// instructions, which lands the panic on the stage-1 goroutine.
type midStreamPanic struct {
	inv *program.Invocation
	at  int
}

func (s *midStreamPanic) Next() (program.Instr, bool) {
	if s.at == 0 {
		panic("source failed")
	}
	s.at--
	return s.inv.Next()
}

// TestStage1PanicDrainsPipeline raises a panic inside a stage-1 goroutine
// and checks that it reaches the caller with its original value, that no
// goroutine is left behind, and that the core runs the next invocation to
// completion.
func TestStage1PanicDrainsPipeline(t *testing.T) {
	p := testProgram()
	base := runtime.NumGoroutine()
	c := newTestCore()
	v := panicsWith(func() { c.RunInvocation(&midStreamPanic{inv: p.NewInvocation(0), at: inlineLen + batchLen + 7}) })
	if v != "source failed" {
		t.Fatalf("panic value %v, want %q", v, "source failed")
	}
	waitGoroutines(t, base)

	// The core runs on.
	got := c.RunInvocation(p.NewInvocation(1))
	if got.Instrs != p.DynamicLength(1) {
		t.Fatalf("after a panic the core ran %d instructions, want %d", got.Instrs, p.DynamicLength(1))
	}
	waitGoroutines(t, base)
}

// panickingPrefetcher panics from stage 2's OnFetch hook after a number of
// fetches, while a stage-1 goroutine is running ahead.
type panickingPrefetcher struct {
	recordingPrefetcher
	left int
}

func (p *panickingPrefetcher) OnFetch(now mem.Cycle, vaddr, paddr uint64, res mem.Result) {
	if p.left == 0 {
		panic("hook failed")
	}
	p.left--
	p.recordingPrefetcher.OnFetch(now, vaddr, paddr, res)
}

// TestStage2PanicStopsStage1 panics in a stage-2 hook mid-stream and checks
// that the stage-1 goroutine is stopped and drained before the panic leaves
// RunInvocation, and that the core can run again.
func TestStage2PanicStopsStage1(t *testing.T) {
	p := testProgram()
	base := runtime.NumGoroutine()
	c := newTestCore()
	c.Prefetcher = &panickingPrefetcher{left: 500}
	if v := panicsWith(func() { c.RunInvocation(p.NewInvocation(0)) }); v != "hook failed" {
		t.Fatalf("panic value %v, want %q", v, "hook failed")
	}
	waitGoroutines(t, base)
	c.Prefetcher = nil
	if got := c.RunInvocation(p.NewInvocation(1)); got.Instrs != p.DynamicLength(1) {
		t.Fatalf("after a panic the core ran %d instructions, want %d", got.Instrs, p.DynamicLength(1))
	}
	waitGoroutines(t, base)
}
