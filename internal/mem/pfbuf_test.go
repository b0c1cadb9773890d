package mem

import "testing"

func newPFBufHierarchy() *Hierarchy {
	h := NewHierarchy(SkylakeHierarchy())
	h.EnablePrefetchBuffer(4)
	return h
}

func TestPrefetchBufferStagesAndServes(t *testing.T) {
	h := newPFBufHierarchy()
	ready := h.PrefetchIntoBuffer(0, 0x4000, TrafficPrefetch)
	if ready == 0 {
		t.Fatal("no ready cycle")
	}
	if h.PFBuf.Fills != 1 {
		t.Errorf("Fills = %d", h.PFBuf.Fills)
	}
	// A demand fetch after readiness is served from the buffer at near-L1
	// latency and moves the line into the L1-I.
	res := h.FetchInstr(ready+10, 0x4000)
	if res.Level != LevelL1 {
		t.Fatalf("buffer hit not at L1 level: %+v", res)
	}
	if res.Latency != h.Config().L1I.HitLatency+2 {
		t.Errorf("buffer-hit latency = %d", res.Latency)
	}
	if h.PFBuf.Hits != 1 {
		t.Errorf("Hits = %d", h.PFBuf.Hits)
	}
	if !h.L1I.Probe(0x4000) {
		t.Error("buffer hit did not promote line into L1-I")
	}
	// The entry was consumed: a second L1-I flush + fetch misses the buffer.
	h.L1I.Flush()
	res = h.FetchInstr(ready+100, 0x4000)
	if res.Level == LevelL1 {
		t.Error("consumed buffer entry served a second demand")
	}
}

func TestPrefetchBufferLateWaitCharged(t *testing.T) {
	h := newPFBufHierarchy()
	ready := h.PrefetchIntoBuffer(0, 0x8000, TrafficPrefetch)
	early := ready - 50
	res := h.FetchInstr(early, 0x8000)
	want := h.Config().L1I.HitLatency + 2 + 50
	if res.Latency != want {
		t.Errorf("late buffer hit latency = %d, want %d", res.Latency, want)
	}
}

func TestPrefetchBufferPrefersFasterL2Copy(t *testing.T) {
	h := newPFBufHierarchy()
	// Line resident in L2 via a demand fetch, then evicted from L1-I only.
	h.FetchInstr(0, 0xC000)
	h.L1I.Flush()
	// A stream prefetcher stages the same line far in the future (its
	// issue-time penalty pushes the ready cycle out); the demand probes the
	// buffer and the L2 in parallel and takes the faster L2 copy.
	h.PrefetchIntoBuffer(1200, 0xC000, TrafficPrefetch)
	res := h.FetchInstr(1001, 0xC000)
	if res.Level != LevelL2 {
		t.Errorf("demand should use the L2 copy: %+v", res)
	}
}

func TestPrefetchBufferFIFOEvictionCountsUnused(t *testing.T) {
	h := newPFBufHierarchy() // 4 entries
	for i := uint64(0); i < 6; i++ {
		h.PrefetchIntoBuffer(Cycle(i), 0x10000+i*LineSize, TrafficPrefetch)
	}
	if h.PFBuf.EvictionUnused != 2 {
		t.Errorf("EvictionUnused = %d, want 2", h.PFBuf.EvictionUnused)
	}
}

func TestPrefetchBufferDuplicateAndResidentSkipped(t *testing.T) {
	h := newPFBufHierarchy()
	r1 := h.PrefetchIntoBuffer(0, 0x4000, TrafficPrefetch)
	fills := h.PFBuf.Fills
	if r2 := h.PrefetchIntoBuffer(5, 0x4000, TrafficPrefetch); r2 != r1 {
		t.Errorf("duplicate prefetch changed ready: %d vs %d", r2, r1)
	}
	if h.PFBuf.Fills != fills {
		t.Error("duplicate prefetch filled again")
	}
	// L1-resident blocks are not staged.
	h.FetchInstr(100, 0x9000)
	if got := h.PrefetchIntoBuffer(200, 0x9000, TrafficPrefetch); got != 200 {
		t.Errorf("L1-resident prefetch ready = %d, want now", got)
	}
}

func TestPrefetchBufferFlush(t *testing.T) {
	h := newPFBufHierarchy()
	h.PrefetchIntoBuffer(0, 0x4000, TrafficPrefetch)
	h.FlushAll()
	if h.PFBuf.EvictionUnused != 1 {
		t.Errorf("flush did not count unused entry: %+v", h.PFBuf)
	}
	res := h.FetchInstr(10_000, 0x4000)
	if res.Latency == h.Config().L1I.HitLatency+2 {
		t.Error("flushed entry still served")
	}
	// FlushAll covers the buffer too.
	h.PrefetchIntoBuffer(0, 0x4040, TrafficPrefetch)
	h.FlushAll()
	if h.PFBuf.EvictionUnused != 2 {
		t.Errorf("FlushAll did not flush the buffer: %+v", h.PFBuf)
	}
}

func TestPrefetchBufferDisabledFallsBackToL1I(t *testing.T) {
	h := NewHierarchy(SkylakeHierarchy())
	h.PrefetchIntoBuffer(0, 0x4000, TrafficPrefetch)
	if !h.L1I.Probe(0x4000) {
		t.Error("disabled buffer should prefetch straight into the L1-I")
	}
	// Disable after enabling.
	h2 := newPFBufHierarchy()
	h2.EnablePrefetchBuffer(0)
	h2.PrefetchIntoBuffer(0, 0x4000, TrafficPrefetch)
	if !h2.L1I.Probe(0x4000) {
		t.Error("re-disabled buffer should prefetch into the L1-I")
	}
}

func TestPrefetchBufferSourcesFromInnerLevels(t *testing.T) {
	h := newPFBufHierarchy()
	// Warm LLC only.
	h.FetchInstr(0, 0xD000)
	h.L1I.Flush()
	h.L2.Flush()
	dramBefore := h.DRAM.TotalBytes()
	ready := h.PrefetchIntoBuffer(100, 0xD000, TrafficPrefetch)
	if h.DRAM.TotalBytes() != dramBefore {
		t.Error("LLC-resident prefetch touched DRAM")
	}
	want := Cycle(100) + h.Config().L2.HitLatency + h.Config().LLC.HitLatency
	if ready != want {
		t.Errorf("LLC-sourced ready = %d, want %d", ready, want)
	}
	// L2-resident: cheaper still.
	h.FetchInstr(10_000, 0xE000)
	h.L1I.Flush()
	ready = h.PrefetchIntoBuffer(20_000, 0xE000, TrafficPrefetch)
	if want := Cycle(20_000) + h.Config().L2.HitLatency; ready != want {
		t.Errorf("L2-sourced ready = %d, want %d", ready, want)
	}
}

func TestResetStatsCoversPFBuf(t *testing.T) {
	h := newPFBufHierarchy()
	h.PrefetchIntoBuffer(0, 0x4000, TrafficPrefetch)
	h.ResetStats()
	if h.PFBuf.Fills != 0 {
		t.Error("PFBuf stats survived reset")
	}
}
