package sched

import (
	"math"
	"testing"

	"lukewarm/internal/program"
)

// TestShapeDrawCounts pins the RNG-draw-count contract documented on GapMs:
// a shape that silently starts drawing more (or fewer) uniforms would shift
// every downstream draw and break bit-exact reproducibility of the traffic
// engine. Each kind's post-GapMs RNG state must equal a fresh RNG skipped
// exactly the documented number of Float64 draws.
func TestShapeDrawCounts(t *testing.T) {
	draws := map[ShapeKind]int{
		Fixed:     0,
		Poisson:   1,
		HeavyTail: 2,
		Diurnal:   1,
		Bursty:    2,
	}
	for kind, n := range draws {
		s := Shape{Kind: kind, MeanIATms: 64}
		a := program.NewRNG(99)
		s.GapMs(a, 0)
		b := program.NewRNG(99)
		for i := 0; i < n; i++ {
			b.Float64()
		}
		if a.Float64() != b.Float64() {
			t.Errorf("%v: GapMs consumed a number of draws other than the documented %d", kind, n)
		}
	}
}

// TestHeavyTailTailMass checks the distribution shape, not just the mean:
// HeavyTail must put substantially more mass beyond 3x the mean gap than the
// memoryless Poisson process does (analytically ~9.0% vs ~5.0%).
func TestHeavyTailTailMass(t *testing.T) {
	tailFrac := func(kind ShapeKind) float64 {
		gaps := Shape{Kind: kind, MeanIATms: 100}.Sequence(11, 3, 20000)
		tail := 0
		for _, g := range gaps {
			if g > 300 {
				tail++
			}
		}
		return float64(tail) / float64(len(gaps))
	}
	ht, po := tailFrac(HeavyTail), tailFrac(Poisson)
	if ht < 1.5*po {
		t.Errorf("heavy-tail mass beyond 3x mean = %.3f, Poisson = %.3f; want >= 1.5x", ht, po)
	}
}

// TestBurstyShape checks the adversarial mixture's two modes: ~80% of gaps
// are intra-burst (well under half the mean, drawn at mean/8) and the long
// lulls carry enough tail mass that a mode-seeking forecaster who locks onto
// the burst gap mispredicts every lull.
func TestBurstyShape(t *testing.T) {
	gaps := Shape{Kind: Bursty, MeanIATms: 100}.Sequence(11, 3, 20000)
	short, tail := 0, 0
	for _, g := range gaps {
		if g < 50 {
			short++
		}
		if g > 200 {
			tail++
		}
	}
	shortFrac := float64(short) / float64(len(gaps))
	tailFrac := float64(tail) / float64(len(gaps))
	if shortFrac < 0.75 || shortFrac > 0.86 {
		t.Errorf("bursty short-gap fraction = %.3f, want ~0.81 (80%% mixture at mean/8)", shortFrac)
	}
	if tailFrac < 0.09 || tailFrac > 0.17 {
		t.Errorf("bursty tail mass beyond 2x mean = %.3f, want ~0.13", tailFrac)
	}
}

// TestDiurnalPeriod verifies the rate cycle has its period of
// DiurnalPeriodInMeans mean gaps: with the 5% jitter the only other
// modulation, every observed gap must sit within the jitter band of
// mean/(1 + A*sin(2*pi*t/period)) evaluated at the gap's start time. A wrong period would desynchronize the predicted rate
// from the drawn gaps almost immediately.
func TestDiurnalPeriod(t *testing.T) {
	const mean, period = 100.0, DiurnalPeriodInMeans * 100.0
	s := Shape{Kind: Diurnal, MeanIATms: mean}
	gaps := s.Sequence(21, 4, 500)
	now := 0.0
	for i, g := range gaps {
		rate := 1 + DiurnalAmplitude*math.Sin(2*math.Pi*now/period)
		want := mean / rate
		if math.Abs(g-want) > want*(DiurnalJitter+1e-9) {
			t.Fatalf("gap %d = %.2f ms at t=%.1f, outside jitter band around %.2f: period modulation wrong", i, g, now, want)
		}
		now += g
	}
}
