package sched

import (
	"math"

	"lukewarm/internal/cfgerr"
)

// Decision is a KeepAlive policy's verdict on one idle gap, consulted when
// the function's next invocation arrives. The gap runs from the previous
// invocation's completion to this arrival.
type Decision struct {
	// Evicted reports that the instance was reclaimed during the gap.
	Evicted bool
	// Prewarmed reports that a pre-warm restored the instance to memory
	// before the arrival; an evicted-then-prewarmed gap is not a cold start.
	Prewarmed bool
	// ResidentMs is how long the instance stayed memory-resident during the
	// gap — the instance-memory budget the policy spent on it.
	ResidentMs float64
}

// ColdStart reports whether the gap ends in a cold start: the instance was
// evicted and no pre-warm brought it back in time.
func (d Decision) ColdStart() bool { return d.Evicted && !d.Prewarmed }

// KeepAlive decides how long idle instances stay memory-resident. The
// traffic engine consults Decide lazily, at each arrival that follows an
// idle gap; policies that learn (HybridHistogram) fold the observed gap into
// their per-function model as part of the call. Calls arrive in
// deterministic dispatch order.
type KeepAlive interface {
	// Name labels the policy in tables and variant tags.
	Name() string
	// Decide judges one idle gap of fn and returns what happened to the
	// instance during it.
	Decide(fn string, idleMs float64) Decision
}

// fixedTimeout evicts after a constant idle timeout.
type fixedTimeout struct{ timeoutMs float64 }

// FixedTimeout returns the classic provider policy (and the traffic
// engine's historical behaviour): the instance is reclaimed once it has been
// idle longer than timeoutMs, and its next invocation cold-starts.
func FixedTimeout(timeoutMs float64) KeepAlive { return fixedTimeout{timeoutMs: timeoutMs} }

func (fixedTimeout) Name() string { return "FixedTimeout" }

// ValidateKeepAlive rejects a policy no run can honor: a FixedTimeout with a
// negative or NaN timeout (NaN would silently never evict), or a
// HybridHistogram whose config Validate rejects. Errors wrap
// cfgerr.ErrBadConfig.
func ValidateKeepAlive(ka KeepAlive) error {
	switch p := ka.(type) {
	case fixedTimeout:
		if !(p.timeoutMs >= 0) {
			return cfgerr.New("keep-alive: FixedTimeout must be non-negative, got %g ms", p.timeoutMs)
		}
	case *hybridHistogram:
		return p.cfg.Validate()
	}
	return nil
}

func (p fixedTimeout) Decide(_ string, idleMs float64) Decision {
	if idleMs > p.timeoutMs {
		return Decision{Evicted: true, ResidentMs: p.timeoutMs}
	}
	return Decision{ResidentMs: idleMs}
}

// noEvict keeps every instance resident forever.
type noEvict struct{}

// NoEvict returns the keep-forever policy: no instance is ever reclaimed,
// so no invocation ever cold-starts — at the price of paying memory for
// every idle millisecond.
func NoEvict() KeepAlive { return noEvict{} }

func (noEvict) Name() string { return "NoEvict" }

func (noEvict) Decide(_ string, idleMs float64) Decision {
	return Decision{ResidentMs: idleMs}
}

// HybridHistogram trust thresholds: a function's histogram is trusted once
// it holds hybridMinSamples gaps, and it counts as predictable (low CV in
// Shahrad et al.'s terms) and earns a pre-warm window while its p99/p5 IAT
// ratio stays within hybridSpreadMax.
const (
	hybridMinSamples = 4
	hybridSpreadMax  = 4
)

// HybridConfig parameterizes the HybridHistogram policy. The zero value
// selects the default documented on its field.
type HybridConfig struct {
	// FallbackMs is the fixed timeout applied while a function has fewer
	// than four observed gaps (and as the behaviour HybridHistogram degrades
	// to when its histogram says the pattern is unpredictable and even the
	// conservative window would be pointless). Zero or a negative value
	// selects 250 ms.
	FallbackMs float64
}

// Validate rejects a non-finite FallbackMs: NaN and +Inf would silently
// never evict. Errors wrap cfgerr.ErrBadConfig.
func (c HybridConfig) Validate() error {
	if math.IsNaN(c.FallbackMs) || math.IsInf(c.FallbackMs, 0) {
		return cfgerr.New("keep-alive: HybridHistogram FallbackMs must be finite, got %g ms", c.FallbackMs)
	}
	return nil
}

// withDefaults fills a finite non-positive FallbackMs; it leaves a
// non-finite one for Validate to reject.
func (c HybridConfig) withDefaults() HybridConfig {
	if c.FallbackMs <= 0 && !math.IsInf(c.FallbackMs, -1) {
		c.FallbackMs = 250
	}
	return c
}

// hybridHistogram is the per-function hybrid policy of Shahrad et al.
type hybridHistogram struct {
	cfg   HybridConfig
	hists map[string]*IATHistogram
}

// HybridHistogram returns the per-function hybrid keep-alive/pre-warm policy
// of Shahrad et al. (ATC'20): each function's observed inter-arrival gaps
// feed a log-scale histogram, and the policy derives two windows from it.
//
// For a predictable function (p99/p5 spread within 4x) the instance
// is kept resident only for a short head window (p5/8, absorbing intra-burst
// re-invocations), reclaimed, and pre-warmed at 80% of the 5th-percentile
// gap — just before the earliest plausible next arrival — so nearly every
// invocation finds it warm while memory is spent only on the tail of each
// gap. For an unpredictable function the policy falls back to a conservative
// fixed keep-alive at the 99th-percentile gap (no pre-warm can beat a
// memoryless arrival process). Functions with fewer than four observed gaps
// use the FallbackMs fixed timeout.
func HybridHistogram(cfg HybridConfig) KeepAlive {
	return &hybridHistogram{cfg: cfg.withDefaults(), hists: map[string]*IATHistogram{}}
}

func (*hybridHistogram) Name() string { return "HybridHistogram" }

func (p *hybridHistogram) Decide(fn string, idleMs float64) Decision {
	h := p.hists[fn]
	if h == nil {
		h = &IATHistogram{}
		p.hists[fn] = h
	}
	d := p.decide(h, idleMs)
	h.Add(idleMs)
	return d
}

// fallbackMs is the fixed-timeout window used while a function's histogram
// is not yet trusted. It re-applies the documented 250 ms default so that an
// empty history never degenerates to a zero-length window (and an immediate
// evict) even when the policy was built from a zero-value HybridConfig that
// bypassed withDefaults.
func (p *hybridHistogram) fallbackMs() float64 {
	if p.cfg.FallbackMs <= 0 {
		return 250
	}
	return p.cfg.FallbackMs
}

// decide judges idleMs against the windows the current histogram implies.
func (p *hybridHistogram) decide(h *IATHistogram, idleMs float64) Decision {
	// An empty history must fall back to the fixed timeout: percentile
	// returns 0 for n == 0, which would otherwise collapse both windows to
	// zero and evict (and "pre-warm") on every gap.
	if h.N() < hybridMinSamples {
		return fixedTimeout{timeoutMs: p.fallbackMs()}.Decide("", idleMs)
	}
	p5, p99 := h.Percentile(5), h.Percentile(99)
	if p99 > p5*hybridSpreadMax {
		// Unpredictable: conservative keep-alive at the p99 gap, no pre-warm.
		return fixedTimeout{timeoutMs: p99}.Decide("", idleMs)
	}
	// float64(...) rounds each product, so arm64 cannot fuse it into the add (make fmagate).
	head := float64(p5 / 8)
	prewarmAt := float64(0.8 * p5)
	switch {
	case idleMs <= head:
		// Intra-burst re-invocation: never left memory.
		return Decision{ResidentMs: idleMs}
	case idleMs >= prewarmAt:
		// Evicted at the head window, restored by the pre-warm before the
		// arrival: warm again, memory spent only on head + tail.
		return Decision{Evicted: true, Prewarmed: true,
			ResidentMs: head + (idleMs - prewarmAt)}
	default:
		// Arrived in the reclaimed window before the pre-warm fired.
		return Decision{Evicted: true, ResidentMs: head}
	}
}

// Windows reports the pre-warm and keep-alive windows the policy currently
// derives for fn, for inspection and tests: headMs is the post-completion
// keep-alive, prewarmMs the pre-warm point (0 when the function is
// unpredictable or unlearned, in which case keepMs is the fixed window in
// effect).
func (p *hybridHistogram) Windows(fn string) (headMs, prewarmMs, keepMs float64) {
	h := p.hists[fn]
	if h == nil || h.N() < hybridMinSamples {
		return 0, 0, p.fallbackMs()
	}
	p5, p99 := h.Percentile(5), h.Percentile(99)
	if p99 > p5*hybridSpreadMax {
		return 0, 0, p99
	}
	return p5 / 8, 0.8 * p5, 0
}

// HybridWindows exposes a HybridHistogram policy's learned windows for fn.
// It returns zeros for any other KeepAlive implementation.
func HybridWindows(ka KeepAlive, fn string) (headMs, prewarmMs, keepMs float64) {
	if p, ok := ka.(*hybridHistogram); ok {
		return p.Windows(fn)
	}
	return 0, 0, 0
}
