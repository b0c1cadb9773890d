package serverless

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"lukewarm/internal/mem"
	"lukewarm/internal/program"
	"lukewarm/internal/workload"
)

// TinyWorkloads builds n tiny functions: 4 KB of code and about 1100
// instructions per invocation, so a whole traffic run takes milliseconds
// and every stream is short enough to walk ahead.
func TinyWorkloads(tb testing.TB, n int) []workload.Workload {
	var ws []workload.Workload
	for i := 0; i < n; i++ {
		p, err := program.NewErr(program.Config{
			Name: fmt.Sprintf("tiny-%d", i), Seed: program.Mix(0xF022, uint64(i)),
			CodeKB: 4, DynamicInstrs: 600, InstrPerLine: 16,
			CoreFrac: 0.8, OptionalProb: 0.7, RareFrac: 0.05, RareProb: 0.05,
			LoadFrac: 0.25, StoreFrac: 0.1, CondFrac: 0.3, CondBias: 0.9, NoisyFrac: 0.02,
			IndirectFrac: 0.1, CallFrac: 0.3, SkipFrac: 0.04,
			DataKB: 16, HotDataKB: 4, HotDataFrac: 0.6, ColdDataFrac: 0.05, DepLoadFrac: 0.2, KernelFrac: 0.1,
		})
		if err != nil {
			tb.Fatal(err)
		}
		ws = append(ws, workload.Workload{Name: p.Config().Name, App: "tiny", Lang: workload.Go, Program: p})
	}
	return ws
}

// TestInvokeWarmAllocs pins the server's warm invocation path at zero
// steady-state allocations: the pooled per-instance walker, the per-core
// prefetcher scratch, and the core's pooled pipeline batches must absorb
// everything after the first few invocations.
func TestInvokeWarmAllocs(t *testing.T) {
	s := New(Config{})
	deploySubset(t, s, "Auth-G")
	inst := s.Instances()[0]
	for i := 0; i < 10; i++ {
		s.Invoke(inst)
	}
	avg := testing.AllocsPerRun(8, func() { s.Invoke(inst) })
	if avg != 0 {
		t.Fatalf("warm Invoke allocates %.2f objects/run, want 0", avg)
	}
}

// TestInvokeWalkAheadAllocs pins the warm invocation path of a short
// function with a spare P, where each dispatch replays a record walked
// ahead and claims the next: nothing on it allocates. AllocsPerRun runs at
// one P, where nothing walks ahead, so this counts the dispatch path's
// allocations itself (invokeMallocs).
func TestInvokeWalkAheadAllocs(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	s := New(Config{})
	inst := s.Deploy(TinyWorkloads(t, 1)[0])
	for i := 0; i < 300; i++ {
		s.Invoke(inst)
	}
	const runs = 200
	n := invokeMallocs(func() {
		for i := 0; i < runs; i++ {
			s.Invoke(inst)
		}
	})
	if avg := float64(n) / runs; avg > 0.05 {
		t.Fatalf("warm walked-ahead Invoke allocates %.2f objects/run, want 0", avg)
	}
}

// invokeMallocs returns how many heap objects run allocated under
// Server.Invoke, read from a heap profile that samples every allocation.
// The process-wide malloc count would also count the walk-ahead helper
// goroutine, which grows a record slot's buffers whenever the OS delays it
// long enough that a dispatch claims a slot no stream has filled before —
// work off the dispatch path whose amount depends on host load.
func invokeMallocs(run func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	count := func() int64 {
		// A heap profile is published by the second GC after the
		// allocation.
		runtime.GC()
		runtime.GC()
		var recs []runtime.MemProfileRecord
		for {
			n, ok := runtime.MemProfile(recs, true)
			if ok {
				recs = recs[:n]
				break
			}
			recs = make([]runtime.MemProfileRecord, n+64)
		}
		var objs int64
		for _, r := range recs {
			frames := runtime.CallersFrames(r.Stack())
			for more := true; more; {
				var f runtime.Frame
				f, more = frames.Next()
				if strings.HasPrefix(f.Function, "lukewarm/internal/serverless.(*Server).Invoke") {
					objs += r.AllocObjects
					break
				}
			}
		}
		return objs
	}
	before := count()
	run()
	return count() - before
}

// TestTrafficDispatchWarmAllocs pins the steady-state TrafficSim step. The
// only live allocation source is the amortized growth of the latency-sample
// slice, so a warm dispatch must average well under one object per step;
// anything more means a per-dispatch allocation crept back into the engine.
func TestTrafficDispatchWarmAllocs(t *testing.T) {
	s := New(Config{})
	deploySubset(t, s, "Auth-G")
	ts, err := s.NewTrafficSim(DefaultTrafficConfig())
	if err != nil {
		t.Fatal(err)
	}
	inst := s.Instances()[0]
	at := s.Core.Now()
	step := func() {
		at += mem.Cycle(100_000)
		ts.Dispatch(inst, at, false, nil)
	}
	// Warm until the latency slice reaches a power-of-two capacity well
	// above the measured window, so append growth cannot fire mid-measure.
	for i := 0; i < 100; i++ {
		step()
	}
	avg := testing.AllocsPerRun(16, func() { step() })
	if avg > 0.5 {
		t.Fatalf("warm TrafficSim dispatch allocates %.2f objects/run, want < 0.5", avg)
	}
}
