package vm

import (
	"testing"

	"lukewarm/internal/mem"
)

func newTestMMU() (*MMU, *mem.DRAM) {
	dram := mem.NewDRAM(mem.DRAMConfig{AccessLatency: 100, LinePeriod: 10})
	m := NewMMU(DefaultMMUConfig(), dram)
	m.SetAddressSpace(NewAddressSpace(NewFrameAllocator(0)))
	return m, dram
}

func TestWalkerColdAndWarm(t *testing.T) {
	dram := mem.NewDRAM(mem.DRAMConfig{AccessLatency: 100, LinePeriod: 10})
	w := NewWalker(WalkerConfig{BaseLatency: 25, CacheEntries: 4}, dram)
	cold := w.Walk(0, 7)
	if cold != 125 {
		t.Errorf("cold walk = %d, want 125", cold)
	}
	warm := w.Walk(1000, 7)
	if warm != 25 {
		t.Errorf("warm walk = %d, want 25", warm)
	}
	// A page sharing the PTE line (same vpage>>3) is also warm.
	if got := w.Walk(2000, 6); got != 25 {
		t.Errorf("PTE-line-sharing walk = %d, want 25", got)
	}
	if w.Walks != 3 || w.ColdWalks != 1 {
		t.Errorf("walks=%d cold=%d", w.Walks, w.ColdWalks)
	}
}

func TestWalkerFIFOEviction(t *testing.T) {
	dram := mem.NewDRAM(mem.DRAMConfig{AccessLatency: 100, LinePeriod: 10})
	w := NewWalker(WalkerConfig{BaseLatency: 25, CacheEntries: 2}, dram)
	w.Walk(0, 0<<3)
	w.Walk(0, 1<<3)
	w.Walk(0, 2<<3) // evicts PTE line 0
	if got := w.Walk(0, 0<<3); got == 25 {
		t.Error("evicted PTE line still warm")
	}
}

func TestWalkerFlush(t *testing.T) {
	dram := mem.NewDRAM(mem.DRAMConfig{AccessLatency: 100, LinePeriod: 10})
	w := NewWalker(WalkerConfig{}, dram)
	w.Walk(0, 9)
	w.Flush()
	if got := w.Walk(5000, 9); got == w.cfg.BaseLatency {
		t.Error("walker cache survived flush")
	}
}

func TestWalkerDefaults(t *testing.T) {
	w := NewWalker(WalkerConfig{}, mem.NewDRAM(mem.DRAMConfig{}))
	def := DefaultWalkerConfig()
	if w.cfg != def {
		t.Errorf("defaults not applied: %+v", w.cfg)
	}
}

func TestMMUTranslateChargesWalkOnlyOnMiss(t *testing.T) {
	m, _ := newTestMMU()
	_, lat1 := m.TranslateInstr(0, 0x40_0000)
	if lat1 == 0 {
		t.Error("cold ITLB access had no walk latency")
	}
	_, lat2 := m.TranslateInstr(100, 0x40_0100)
	if lat2 != 0 {
		t.Errorf("warm ITLB access charged %d", lat2)
	}
	if m.ITLB.Stats.Misses != 1 {
		t.Errorf("ITLB misses = %d", m.ITLB.Stats.Misses)
	}
}

// TestResolveThenLatencyIsTranslate holds the split translation exact: a
// stream resolved up front and charged later gives every access the same
// physical address and latency, and leaves the same TLB, walker and DRAM
// state, as translating each access in turn.
func TestResolveThenLatencyIsTranslate(t *testing.T) {
	whole, wholeDRAM := newTestMMU()
	split, splitDRAM := newTestMMU()
	type access struct {
		vaddr uint64
		instr bool
	}
	var stream []access
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 4000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// A few hundred pages over two regions, so the TLBs and the walker
		// cache both hit and miss.
		stream = append(stream, access{vaddr: 0x40_0000 + x%(300*PageSize) + (x>>40)%2*0x1000_0000, instr: x>>63 == 1})
	}
	paddrs := make([]uint64, len(stream))
	kinds := make([]WalkKind, len(stream))
	var seen [WalkCold + 1]int
	for i, a := range stream {
		if a.instr {
			paddrs[i], kinds[i] = split.ResolveInstr(a.vaddr)
		} else {
			paddrs[i], kinds[i] = split.ResolveData(a.vaddr)
		}
		seen[kinds[i]]++
	}
	if seen[WalkNone] == 0 || seen[WalkWarm] == 0 || seen[WalkCold] == 0 {
		t.Fatalf("stream does not cover every walk kind: %v", seen)
	}
	now := mem.Cycle(0)
	for i, a := range stream {
		var want uint64
		var wantLat mem.Cycle
		if a.instr {
			want, wantLat = whole.TranslateInstr(now, a.vaddr)
		} else {
			want, wantLat = whole.TranslateData(now, a.vaddr)
		}
		lat := split.Walker.Latency(now, kinds[i])
		if paddrs[i] != want || lat != wantLat {
			t.Fatalf("access %d: split gave (%#x, %d), Translate gave (%#x, %d)", i, paddrs[i], lat, want, wantLat)
		}
		now += 3 + wantLat
	}
	if whole.ITLB.Stats != split.ITLB.Stats || whole.DTLB.Stats != split.DTLB.Stats ||
		whole.Walker.Walks != split.Walker.Walks || whole.Walker.ColdWalks != split.Walker.ColdWalks ||
		*wholeDRAM != *splitDRAM {
		t.Fatal("split translation left different TLB, walker or DRAM state")
	}
}

func TestMMUInstrAndDataSidesAreSeparate(t *testing.T) {
	m, _ := newTestMMU()
	m.TranslateInstr(0, 0x1000)
	// Data side is still cold for the same page.
	_, lat := m.TranslateData(10, 0x1000)
	if lat == 0 {
		t.Error("DTLB warm after only ITLB access")
	}
	if m.DTLB.Stats.Misses != 1 {
		t.Errorf("DTLB misses = %d", m.DTLB.Stats.Misses)
	}
}

func TestMMUFlushAndReset(t *testing.T) {
	m, _ := newTestMMU()
	m.TranslateInstr(0, 0x1000)
	m.Flush()
	_, lat := m.TranslateInstr(100, 0x1000)
	if lat == 0 {
		t.Error("translation free right after flush")
	}
	m.ResetStats()
	if m.ITLB.Stats.Accesses != 0 || m.Walker.Walks != 0 {
		t.Error("ResetStats incomplete")
	}
}

func TestMMUPanicsWithoutAddressSpace(t *testing.T) {
	m := NewMMU(DefaultMMUConfig(), mem.NewDRAM(mem.DRAMConfig{}))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.TranslateInstr(0, 0x1000)
}

func TestMMUCompactionTransparency(t *testing.T) {
	// After Compact + TLB flush, the same virtual address translates to the
	// new physical page with no functional breakage — the property Jukebox's
	// virtual-address metadata relies on.
	m, _ := newTestMMU()
	as := m.AddressSpace()
	p1, _ := m.TranslateInstr(0, 0x7000)
	as.Compact()
	m.Flush()
	p2, _ := m.TranslateInstr(100, 0x7000)
	if PageOf(p1) == PageOf(p2) {
		t.Error("compaction did not move the page")
	}
	if p1&(PageSize-1) != p2&(PageSize-1) {
		t.Error("page offset not preserved across compaction")
	}
}
