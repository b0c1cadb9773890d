package sched

import (
	"math"

	"lukewarm/internal/program"
)

// ShapeKind enumerates the arrival-process shapes the traffic engine can
// drive an instance with.
type ShapeKind uint8

const (
	// Fixed spaces arrivals exactly MeanIATms apart.
	Fixed ShapeKind = iota
	// Poisson draws exponential gaps (memoryless arrivals).
	Poisson
	// HeavyTail layers burstiness over Poisson: a 50/50 mixture of short
	// intra-burst gaps (mean/4) and long lulls (7*mean/4), preserving the
	// configured mean — the Azure-trace approximation (Shahrad et al.).
	HeavyTail
	// Diurnal modulates near-periodic arrivals with a fleet-wide sinusoidal
	// rate cycle (the day/night load swing) plus a small jitter: gaps are
	// individually predictable (low CV, the common case in the Azure
	// traces) while the rate drifts over the period.
	Diurnal
	// Bursty is the adversarial shape for pre-warm forecasters: an 80/20
	// mixture of very short intra-burst gaps (mean/8) and very long lulls
	// (4.5*mean), preserving the configured mean. A mode-seeking forecaster
	// locks onto the short gap, so every lull both wastes its scheduled
	// pre-warm and cold-faults the next arrival — mispredictions are
	// maximally costly.
	Bursty
)

// String names the shape for tables and variant tags.
func (k ShapeKind) String() string {
	switch k {
	case Fixed:
		return "fixed"
	case Poisson:
		return "poisson"
	case HeavyTail:
		return "heavytail"
	case Diurnal:
		return "diurnal"
	case Bursty:
		return "bursty"
	}
	return "unknown"
}

// Diurnal-shape constants: a ±30% rate swing keeps per-function gaps inside
// a ~1.9x band (predictable for the hybrid keep-alive policy), and the 5%
// jitter stands in for client-side noise. The default period is 20 mean
// gaps, so a run long enough to measure anything sees the rate drift.
const (
	DiurnalAmplitude     = 0.3
	DiurnalJitter        = 0.05
	DiurnalPeriodInMeans = 20
)

// Shape is one instance's arrival-gap generator: a pure sampler over an
// externally supplied RNG stream, so the traffic engine controls draw order
// (and therefore bit-exact reproducibility) while the shapes own the math.
type Shape struct {
	// Kind selects the gap distribution.
	Kind ShapeKind
	// MeanIATms is the mean gap in milliseconds.
	MeanIATms float64
}

// period returns the diurnal cycle length.
func (s Shape) period() float64 { return DiurnalPeriodInMeans * s.MeanIATms }

// exp draws an exponential gap with the given mean, clamping the uniform
// draw away from zero exactly as the traffic engine always has.
func exp(rng *program.RNG, mean float64) float64 {
	u := rng.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	return -math.Log(u) * mean
}

// GapMs draws the next inter-arrival gap in milliseconds. nowMs is the
// simulated time the gap starts at (the previous arrival), used only by the
// time-varying Diurnal shape. The number and order of RNG draws per kind is
// part of the determinism contract: Fixed draws none, Poisson one, HeavyTail
// two, Diurnal one, Bursty two.
func (s Shape) GapMs(rng *program.RNG, nowMs float64) float64 {
	switch s.Kind {
	case Poisson:
		return exp(rng, s.MeanIATms)
	case HeavyTail:
		if rng.Bool(0.5) {
			return exp(rng, s.MeanIATms/4)
		}
		return exp(rng, s.MeanIATms*7/4)
	case Bursty:
		// 0.8*(1/8) + 0.2*4.5 = 1: the mixture preserves MeanIATms.
		if rng.Bool(0.8) {
			return exp(rng, s.MeanIATms/8)
		}
		return exp(rng, s.MeanIATms*4.5)
	case Diurnal:
		// float64(...) rounds each product, so arm64 cannot fuse it into the add (make fmagate).
		rate := 1 + float64(DiurnalAmplitude*math.Sin(2*math.Pi*nowMs/s.period()))
		jitter := 1 + float64(DiurnalJitter*(2*float64(rng.Float64())-1))
		return s.MeanIATms / rate * jitter
	}
	return s.MeanIATms
}

// Sequence generates the first n gaps of one instance's arrival process from
// a fresh stream seeded by (seed, stream), accumulating simulated time as it
// goes. It exists for tests and offline analysis: the same (shape, seed,
// stream, n) always yields the same slice, on any machine, under any
// parallelism — arrival processes are pure functions of their seeds.
func (s Shape) Sequence(seed, stream uint64, n int) []float64 {
	rng := program.NewRNG(program.Mix(seed, stream))
	gaps := make([]float64, n)
	now := 0.0
	for i := range gaps {
		gaps[i] = s.GapMs(rng, now)
		now += gaps[i]
	}
	return gaps
}
