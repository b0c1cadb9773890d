package cpu

import (
	"fmt"
	"testing"

	"lukewarm/internal/program"
	"lukewarm/internal/vm"
)

// nextOnly hides an invocation's WalkBatch method, forcing RunInvocation
// down the per-instruction interface path, where every instruction is an
// event. FuzzCacheBatchedFetch uses it to hold the region-batched fetch
// pipeline bit-identical to the unbatched one.
type nextOnly struct{ src InstrSource }

func (n nextOnly) Next() (program.Instr, bool) { return n.src.Next() }

// coreFingerprint captures everything an invocation run can influence:
// the timing decomposition plus the full stat blocks of every private cache
// level and the core clock.
func coreFingerprint(c *Core, res RunResult) string {
	return fmt.Sprintf("res=%+v now=%d l1i=%+v l1d=%+v l2=%+v itlb=%+v dtlb=%+v",
		res, c.Now(), c.Hier.L1I.Stats, c.Hier.L1D.Stats, c.Hier.L2.Stats,
		c.MMU.ITLB.Stats, c.MMU.DTLB.Stats)
}

// FuzzCacheBatchedFetch generates a synthetic program from fuzzed knobs and
// runs the same invocation twice on fresh cores: once through the batched
// fast path (WalkBatch buffers and events feeding the fetch→L1I→walk→L2 pipeline),
// once through the per-instruction Next fallback. Any fingerprint mismatch
// means the batched pipeline drifted from the architectural model.
func FuzzCacheBatchedFetch(f *testing.F) {
	f.Add(uint64(77), uint64(0), uint16(64), uint32(5000), byte(5), byte(2), byte(6), byte(2), byte(1), byte(3))
	f.Add(uint64(1), uint64(3), uint16(240), uint32(29999), byte(7), byte(3), byte(0), byte(0), byte(3), byte(0))
	f.Fuzz(func(t *testing.T, seed, id uint64, codeKB uint16, dyn uint32,
		loadB, storeB, condB, noisyB, skipB, callB byte) {
		ckb := 16 + int(codeKB%240)
		cfg := program.Config{
			Name:          "fuzz",
			Seed:          seed,
			CodeKB:        ckb,
			DynamicInstrs: ckb*16 + 2000 + int(dyn%30000),
			CoreFrac:      0.6,
			OptionalProb:  0.5,
			RareFrac:      0.05,
			RareProb:      0.1,
			InstrPerLine:  16,
			LoadFrac:      float64(loadB%8) * 0.05,
			StoreFrac:     float64(storeB%4) * 0.05,
			CondFrac:      float64(condB%8) * 0.04,
			CondBias:      0.9,
			NoisyFrac:     float64(noisyB%4) * 0.01,
			SkipFrac:      float64(skipB%4) * 0.05,
			IndirectFrac:  0.2,
			CallFrac:      float64(callB%5) * 0.1,
			DataKB:        64,
			HotDataKB:     8,
			HotDataFrac:   0.6,
			ColdDataFrac:  0.05,
			DepLoadFrac:   0.2,
			KernelFrac:    0.1,
		}
		if err := cfg.Validate(); err != nil {
			t.Skip(err)
		}
		p := program.New(cfg)

		run := func(batched bool) string {
			c := NewCore(SkylakeConfig())
			c.MMU.SetAddressSpace(vm.NewAddressSpace(vm.NewFrameAllocator(0)))
			inv := p.NewInvocation(id % 8)
			var res RunResult
			if batched {
				res = c.RunInvocation(inv)
			} else {
				res = c.RunInvocation(nextOnly{inv})
			}
			return coreFingerprint(c, res)
		}

		got, want := run(true), run(false)
		if got != want {
			t.Fatalf("batched pipeline diverged from per-instruction path:\nbatched:   %s\nunbatched: %s", got, want)
		}
	})
}
