package cpu

import (
	"reflect"
	"testing"
)

func TestPredictorLearnsBias(t *testing.T) {
	bp := NewBranchPredictor(BPConfig{})
	pc := uint64(0x1000)
	// Train: always taken.
	for i := 0; i < 50; i++ {
		bp.Update(pc, true)
	}
	if !bp.Predict(pc) {
		t.Error("predictor failed to learn always-taken")
	}
	rateBefore := bp.Stats.MispredictRate()
	if rateBefore > 0.2 {
		t.Errorf("training mispredict rate = %v", rateBefore)
	}
}

func TestPredictorLearnsAlternation(t *testing.T) {
	// gshare with history should learn a strict T/N alternation that
	// bimodal cannot.
	bp := NewBranchPredictor(BPConfig{})
	pc := uint64(0x2222)
	for i := 0; i < 400; i++ {
		bp.Update(pc, i%2 == 0)
	}
	bp.ResetStats()
	for i := 400; i < 600; i++ {
		bp.Update(pc, i%2 == 0)
	}
	if rate := bp.Stats.MispredictRate(); rate > 0.1 {
		t.Errorf("alternation mispredict rate after training = %v", rate)
	}
}

func TestPredictorFlush(t *testing.T) {
	bp := NewBranchPredictor(BPConfig{})
	pc := uint64(0x3000)
	for i := 0; i < 50; i++ {
		bp.Update(pc, true)
	}
	bp.Flush()
	bp.ResetStats()
	// Right after a flush the counters are weakly-not-taken; a taken branch
	// mispredicts.
	if correct := bp.Update(pc, true); correct {
		t.Error("flushed predictor still knew the branch")
	}
}

func TestPredictorStatsCount(t *testing.T) {
	bp := NewBranchPredictor(BPConfig{})
	for i := 0; i < 10; i++ {
		bp.Update(uint64(i)<<4, i%2 == 0)
	}
	if bp.Stats.Predictions != 10 {
		t.Errorf("Predictions = %d", bp.Stats.Predictions)
	}
	if bp.Stats.Mispredicts == 0 || bp.Stats.Mispredicts > 10 {
		t.Errorf("Mispredicts = %d", bp.Stats.Mispredicts)
	}
	var empty BPStats
	if empty.MispredictRate() != 0 {
		t.Error("empty rate != 0")
	}
}

func TestPredictorPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBranchPredictor(BPConfig{GshareEntries: 100})
}

func TestPredictorDefaults(t *testing.T) {
	bp := NewBranchPredictor(BPConfig{})
	def := DefaultBPConfig()
	if bp.cfg != def {
		t.Errorf("defaults not applied: %+v", bp.cfg)
	}
}

func TestBTBHitAfterInstall(t *testing.T) {
	btb := NewBTB(16)
	if btb.LookupAndUpdate(0x100, 0x500) {
		t.Error("cold BTB hit")
	}
	if !btb.LookupAndUpdate(0x100, 0x500) {
		t.Error("warm BTB missed")
	}
	// Changed target: resteer, then learned.
	if btb.LookupAndUpdate(0x100, 0x900) {
		t.Error("stale target considered a hit")
	}
	if !btb.LookupAndUpdate(0x100, 0x900) {
		t.Error("updated target missed")
	}
	if btb.Stats.Lookups != 4 || btb.Stats.Resteers != 2 {
		t.Errorf("stats = %+v", btb.Stats)
	}
}

func TestBTBConflict(t *testing.T) {
	btb := NewBTB(16)
	a := uint64(0x100)
	b := a + 16*4 // same index (pc>>2 mod 16)
	btb.LookupAndUpdate(a, 1)
	btb.LookupAndUpdate(b, 2) // evicts a
	if btb.LookupAndUpdate(a, 1) {
		t.Error("conflict-evicted entry still hit")
	}
}

func TestBTBFlushAndReset(t *testing.T) {
	btb := NewBTB(16)
	btb.LookupAndUpdate(0x100, 0x500)
	btb.Flush()
	if btb.LookupAndUpdate(0x100, 0x500) {
		t.Error("entry survived flush")
	}
	btb.ResetStats()
	if btb.Stats.Lookups != 0 {
		t.Error("stats survive reset")
	}
}

func TestBTBPanicsOnBadSize(t *testing.T) {
	for _, n := range []int{0, -4, 24} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for size %d", n)
				}
			}()
			NewBTB(n)
		}()
	}
}

func TestBumpCounterSaturation(t *testing.T) {
	if bumpCounter(3, true) != 3 {
		t.Error("counter overflowed")
	}
	if bumpCounter(0, false) != 0 {
		t.Error("counter underflowed")
	}
	if bumpCounter(1, true) != 2 || bumpCounter(2, false) != 1 {
		t.Error("counter step wrong")
	}
}

// TestRecycledBranchTables checks that a predictor and a BTB built on the
// tables of released, trained ones predict a branch stream exactly as new
// ones do, and that the released ones panic on use.
func TestRecycledBranchTables(t *testing.T) {
	cfg := DefaultBPConfig()
	stream := func(bp *BranchPredictor, btb *BTB) (out []bool) {
		x := uint64(88172645463325252)
		for i := 0; i < 20000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			pc := x % 4096 * 4
			out = append(out, bp.Update(pc, x&3 != 0), btb.LookupAndUpdate(pc, x>>40))
		}
		return out
	}
	oldBP, oldBTB := NewBranchPredictor(cfg), NewBTB(cfg.BTBEntries)
	stream(oldBP, oldBTB)
	oldBP.Release()
	oldBTB.Release()
	oldBP.Release() // a second Release must not hand the tables out twice
	oldBTB.Release()
	recycled := stream(NewBranchPredictor(cfg), NewBTB(cfg.BTBEntries))
	if n, _ := freeBPTables.Retained(); n != 0 {
		t.Fatalf("%d predictor tables still retained after reuse", n)
	}
	if n, _ := freeBTBs.Retained(); n != 0 {
		t.Fatalf("%d BTBs still retained after reuse", n)
	}
	if fresh := stream(NewBranchPredictor(cfg), NewBTB(cfg.BTBEntries)); !reflect.DeepEqual(recycled, fresh) {
		t.Fatal("recycled branch tables predict differently from new ones")
	}
	for name, use := range map[string]func(){
		"predictor": func() { oldBP.Predict(0x40) },
		"BTB":       func() { oldBTB.LookupAndUpdate(0x40, 0x80) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a released %s did not panic on use", name)
				}
			}()
			use()
		}()
	}
}
