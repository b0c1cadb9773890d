package serverless

import (
	"testing"

	"lukewarm/internal/mem"
)

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
