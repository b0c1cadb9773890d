package sched

import (
	"math"
	"testing"
)

func views(freeAt ...float64) []CoreView {
	vs := make([]CoreView, len(freeAt))
	for i, f := range freeAt {
		vs[i].FreeAtMs = f
	}
	return vs
}

func TestEarliestAvailable(t *testing.T) {
	p := EarliestAvailable()
	if got := p.Place(Request{}, views(3, 1, 2)); got != 1 {
		t.Errorf("picked core %d, want 1", got)
	}
	// Ties break to the lowest index, matching the historical dispatch loop.
	if got := p.Place(Request{}, views(2, 2, 2)); got != 0 {
		t.Errorf("tie picked core %d, want 0", got)
	}
}

func TestRoundRobinStripes(t *testing.T) {
	p := RoundRobin()
	vs := views(0, 0, 0)
	for i := 0; i < 7; i++ {
		if got := p.Place(Request{}, vs); got != i%3 {
			t.Fatalf("placement %d: core %d, want %d", i, got, i%3)
		}
	}
}

func TestStickyAffinity(t *testing.T) {
	p := StickyAffinity(4)
	vs := views(9, 1, 5) // core 1 is least loaded
	vs[2].Last = true
	vs[2].ForeignSince = 3
	if got := p.Place(Request{Func: "f"}, vs); got != 2 {
		t.Errorf("warm core ignored: got %d, want 2", got)
	}
	// Warmth expired: more foreign invocations than patience.
	vs[2].ForeignSince = 5
	if got := p.Place(Request{Func: "f"}, vs); got != 1 {
		t.Errorf("expired warmth: got %d, want earliest-available 1", got)
	}
	// Never ran anywhere: earliest available.
	if got := p.Place(Request{Func: "g"}, views(2, 0, 1)); got != 1 {
		t.Errorf("fresh function: got %d, want 1", got)
	}
}

func TestJukeboxAware(t *testing.T) {
	p := JukeboxAware(2)
	vs := views(0, 1, 0)
	vs[1].Bound = true
	// Bound core within slack of the earliest: stay, no Bind churn.
	if got := p.Place(Request{HasJukebox: true}, vs); got != 1 {
		t.Errorf("bound core within slack: got %d, want 1", got)
	}
	// Bound core too far behind: migrate (metadata follows the instance).
	vs[1].FreeAtMs = 5
	if got := p.Place(Request{HasJukebox: true}, vs); got != 0 {
		t.Errorf("overloaded bound core: got %d, want 0", got)
	}
	// No Jukebox: plain earliest-available.
	if got := p.Place(Request{HasJukebox: false}, vs); got != 0 {
		t.Errorf("no jukebox: got %d, want 0", got)
	}
}

func TestFixedTimeoutAndNoEvict(t *testing.T) {
	ka := FixedTimeout(10)
	if d := ka.Decide("f", 5); d.Evicted || d.ResidentMs != 5 {
		t.Errorf("short gap: %+v", d)
	}
	d := ka.Decide("f", 25)
	if !d.ColdStart() || d.Prewarmed || d.ResidentMs != 10 {
		t.Errorf("long gap: %+v", d)
	}
	if d := NoEvict().Decide("f", 1e6); d.Evicted || d.ResidentMs != 1e6 {
		t.Errorf("NoEvict evicted: %+v", d)
	}
}

func TestHybridHistogramLearnsPredictableFunction(t *testing.T) {
	ka := HybridHistogram(HybridConfig{FallbackMs: 50})
	// A near-periodic function: 100 ms gaps with small wobble. The fallback
	// (50 ms) cold-starts every one of them.
	gaps := []float64{98, 102, 99, 101, 100, 97, 103, 100}
	var coldBefore, coldAfter int
	var residentAfter float64
	for i, g := range gaps {
		d := ka.Decide("periodic", g)
		if i < 4 {
			if d.ColdStart() {
				coldBefore++
			}
		} else {
			if d.ColdStart() {
				coldAfter++
			}
			residentAfter += d.ResidentMs
		}
	}
	if coldBefore != 4 {
		t.Errorf("fallback phase cold starts = %d, want 4 (every gap > 50 ms)", coldBefore)
	}
	if coldAfter != 0 {
		t.Errorf("learned phase cold starts = %d, want 0 (pre-warm covers the gaps)", coldAfter)
	}
	// The learned windows spend less memory per gap than the 50 ms fallback.
	if perGap := residentAfter / 4; perGap >= 50 {
		t.Errorf("learned resident %.1f ms/gap, want below the 50 ms fallback", perGap)
	}
	head, prewarm, keep := HybridWindows(ka, "periodic")
	if head <= 0 || prewarm <= head || keep != 0 {
		t.Errorf("windows head=%.1f prewarm=%.1f keep=%.1f, want head<prewarm, no fixed window",
			head, prewarm, keep)
	}
	if prewarm >= 97 {
		t.Errorf("pre-warm at %.1f ms fires after the earliest observed gap", prewarm)
	}
}

func TestHybridHistogramUnpredictableFallsBackToP99(t *testing.T) {
	ka := HybridHistogram(HybridConfig{FallbackMs: 50})
	// Wildly spread gaps: spread far beyond hybridSpreadMax.
	for _, g := range []float64{1, 10, 100, 1000, 5000} {
		ka.Decide("wild", g)
	}
	head, prewarm, keep := HybridWindows(ka, "wild")
	if head != 0 || prewarm != 0 {
		t.Errorf("unpredictable function earned a pre-warm window: head=%.1f prewarm=%.1f", head, prewarm)
	}
	if keep < 1000 {
		t.Errorf("conservative keep-alive %.1f ms, want near the p99 gap", keep)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h IATHistogram
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	p50 := h.Percentile(50)
	if p50 < 45 || p50 > 60 {
		t.Errorf("p50 = %.1f, want ~50 within bin resolution", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 95 || p99 > 110 {
		t.Errorf("p99 = %.1f, want ~99 within bin resolution", p99)
	}
}

func TestShapeSequencesDeterministic(t *testing.T) {
	for _, kind := range []ShapeKind{Fixed, Poisson, HeavyTail, Diurnal, Bursty} {
		s := Shape{Kind: kind, MeanIATms: 100}
		a := s.Sequence(42, 7, 200)
		b := s.Sequence(42, 7, 200)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: gap %d differs: %g vs %g", kind, i, a[i], b[i])
			}
		}
		// A different stream must give a different (but still deterministic)
		// process for every stochastic kind.
		if kind != Fixed {
			c := s.Sequence(42, 8, 200)
			same := true
			for i := range a {
				if a[i] != c[i] {
					same = false
					break
				}
			}
			if same {
				t.Errorf("%v: streams 7 and 8 produced identical sequences", kind)
			}
		}
	}
}

func TestShapeMeansRoughlyPreserved(t *testing.T) {
	for _, kind := range []ShapeKind{Fixed, Poisson, HeavyTail, Diurnal, Bursty} {
		s := Shape{Kind: kind, MeanIATms: 100}
		gaps := s.Sequence(1, 1, 20000)
		sum := 0.0
		for _, g := range gaps {
			sum += g
		}
		mean := sum / float64(len(gaps))
		if math.Abs(mean-100) > 10 {
			t.Errorf("%v: mean gap %.1f ms, want within 10%% of 100", kind, mean)
		}
	}
}

func TestDiurnalGapsPredictableBand(t *testing.T) {
	s := Shape{Kind: Diurnal, MeanIATms: 100}
	gaps := s.Sequence(3, 5, 1000)
	lo, hi := math.Inf(1), 0.0
	for _, g := range gaps {
		lo = math.Min(lo, g)
		hi = math.Max(hi, g)
	}
	// The ±30% rate swing with 5% jitter keeps every gap inside a band the
	// hybrid keep-alive policy classifies as predictable.
	if lo < 100/1.3*0.94 || hi > 100/0.7*1.06 {
		t.Errorf("diurnal gaps span [%.1f, %.1f], outside the designed band", lo, hi)
	}
	if hi/lo > 4 {
		t.Errorf("diurnal spread %.1fx would defeat the hybrid policy's predictability test", hi/lo)
	}
}

// Regression: an empty IAT history must fall back to the fixed timeout, not
// evict immediately. Before decide guarded empty histories, a zero-value
// HybridConfig (bypassing withDefaults) made percentile return 0, collapsing
// both windows to zero and reporting every gap as evicted-and-prewarmed.
func TestHybridHistogramEmptyHistoryFallsBackToFixedTimeout(t *testing.T) {
	// The degenerate construction: a zero-value config never run through
	// withDefaults, as an embedding caller might build it.
	p := &hybridHistogram{cfg: HybridConfig{}, hists: map[string]*IATHistogram{}}
	d := p.Decide("f", 10)
	if d.Evicted || d.Prewarmed {
		t.Fatalf("empty history with 10 ms gap: %+v, want resident (250 ms fallback)", d)
	}
	if d.ResidentMs != 10 {
		t.Fatalf("ResidentMs = %v, want 10", d.ResidentMs)
	}
	if head, prewarm, keep := p.Windows("g"); head != 0 || prewarm != 0 || keep != 250 {
		t.Fatalf("Windows on empty history = %v, %v, %v, want 0, 0, 250", head, prewarm, keep)
	}

	// The public constructor path: the very first gap a function ever shows
	// must be judged by FallbackMs alone.
	ka := HybridHistogram(HybridConfig{FallbackMs: 50})
	if d := ka.Decide("h", 40); d.Evicted {
		t.Fatalf("first 40 ms gap under 50 ms fallback evicted: %+v", d)
	}
	if d := ka.Decide("i", 60); !d.Evicted || d.Prewarmed {
		t.Fatalf("first 60 ms gap under 50 ms fallback: %+v, want plain eviction", d)
	}
}
