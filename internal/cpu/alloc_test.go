package cpu

import (
	"testing"

	"lukewarm/internal/program"
)

// TestRunInvocationWarmAllocs pins the steady-state allocation rate of the
// core's hot loop at zero: once the pipeline's batches, the pooled walker's
// plan storage, and the address space's frame chunks exist, serving further
// invocations must not touch the heap, and neither may starting the stage-1
// goroutine. A regression here silently taxes
// every simulated instruction, so it fails loudly instead.
func TestRunInvocationWarmAllocs(t *testing.T) {
	p := testProgram()
	c := newTestCore()
	var inv program.Invocation
	// Warm both data generations (even/odd ids) and grow the plan buffer to
	// its high-water mark before measuring.
	for id := uint64(0); id < 10; id++ {
		p.ResetInvocation(&inv, id)
		c.RunInvocation(&inv)
	}
	id := uint64(0)
	avg := testing.AllocsPerRun(8, func() {
		p.ResetInvocation(&inv, id%10)
		id++
		c.RunInvocation(&inv)
	})
	if avg != 0 {
		t.Fatalf("warm RunInvocation allocates %.2f objects/run, want 0", avg)
	}
}
