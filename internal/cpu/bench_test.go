package cpu

import (
	"testing"

	"lukewarm/internal/program"
	"lukewarm/internal/vm"
	"lukewarm/internal/workload"
)

func BenchmarkPredictorUpdate(b *testing.B) {
	bp := NewBranchPredictor(BPConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp.Update(uint64(i%1024)<<4, i%3 == 0)
	}
}

func BenchmarkBTBLookup(b *testing.B) {
	btb := NewBTB(8 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		btb.LookupAndUpdate(uint64(i%4096)<<4, uint64(i)<<6)
	}
}

func BenchmarkRunInvocationWarm(b *testing.B) {
	c := NewCore(SkylakeConfig())
	c.MMU.SetAddressSpace(vm.NewAddressSpace(vm.NewFrameAllocator(0)))
	p := testProgram()
	c.RunInvocation(p.NewInvocation(0)) // warm
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := c.RunInvocation(p.NewInvocation(uint64(i)))
		instrs += res.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

func BenchmarkRunInvocationLukewarm(b *testing.B) {
	c := NewCore(SkylakeConfig())
	c.MMU.SetAddressSpace(vm.NewAddressSpace(vm.NewFrameAllocator(0)))
	p := testProgram()
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.FlushMicroarch()
		res := c.RunInvocation(p.NewInvocation(uint64(i)))
		instrs += res.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

var benchSink program.Instr

func BenchmarkFlushMicroarch(b *testing.B) {
	c := NewCore(SkylakeConfig())
	c.MMU.SetAddressSpace(vm.NewAddressSpace(vm.NewFrameAllocator(0)))
	for i := 0; i < b.N; i++ {
		c.FlushMicroarch()
	}
}

// BenchmarkFrontEndFill times stage 1 alone — the walk plus the
// translation of its events — over one invocation each of Auth-G, ProdL-G,
// Pay-N and Email-P per iteration, each on its own core with warm TLBs and
// a populated address space, and reports ns per instruction.
func BenchmarkFrontEndFill(b *testing.B) {
	type fn struct {
		p *program.Program
		c *Core
	}
	var fns []fn
	for _, name := range []string{"Auth-G", "ProdL-G", "Pay-N", "Email-P"} {
		w, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		c := NewCore(SkylakeConfig())
		c.MMU.SetAddressSpace(vm.NewAddressSpace(vm.NewFrameAllocator(0)))
		fns = append(fns, fn{w.Program, c})
	}
	var fe frontEnd
	bt := new(batch)
	stage1 := func(f fn, id uint64) uint64 {
		fe.start(f.c.MMU, f.p.NewInvocation(id))
		var n uint64
		for {
			k := fe.fill(bt, batchLen)
			n += uint64(k)
			if k < batchLen {
				return n
			}
		}
	}
	for _, f := range fns {
		stage1(f, 0) // warm
	}
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fns {
			instrs += stage1(f, uint64(i+1))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}
