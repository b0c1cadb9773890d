// Package predict implements learned pre-warm orchestration: forecasting
// each function's next arrival from its inter-arrival-time (IAT) history and
// running the instance's Jukebox/REAP replay just ahead of the predicted
// arrival, so the invocation starts microarchitecturally warm instead of
// paying the replay inside its own critical path.
//
// The package follows SPES's framing (see PAPERS.md): the warm-up mechanisms
// of the source paper repay the lukewarm tax *after* dispatch; the remaining
// win is to provision instances into graduated readiness states *before*
// dispatch, exploiting the per-function IAT structure Shahrad et al.
// (ATC'20) showed is highly predictable for most functions. The readiness
// ladder is
//
//	Cold → Resident → Prewarmed → Executing
//
// where Prewarmed means the replay already executed (Jukebox metadata
// replay, REAP manifest restore, or both) and the next InvocationStart skips
// it. Mispredictions are charged to an explicit ledger: an arrival before
// the scheduled pre-warm fires gets only partial warmth (the in-flight
// replay folds into the dispatch replay), an arrival long after it — or
// never — pays the full replay bytes and replay-engine occupancy for
// nothing. faults.AuditPredict enforces the ledger's conservation
// invariants.
//
// Three forecasters are provided: HistogramPeak (the modal next gap of a
// per-function log-scale IAT histogram, sharing sched.IATHistogram with the
// HybridHistogram keep-alive policy), EWMA (exponentially weighted next
// gap), and Oracle (peeks at the true schedule; the upper bound). All emit a
// predicted gap plus a confidence in [0, 1].
package predict

import "lukewarm/internal/sched"

// Prediction is a forecaster's estimate of one function's next idle gap.
type Prediction struct {
	// IATms is the predicted gap from the last completion to the next
	// arrival, in milliseconds.
	IATms float64
	// Confidence grades the prediction in [0, 1]; the Prewarmer only
	// schedules a pre-warm when it reaches 0.05.
	Confidence float64
}

// Forecaster predicts per-function next arrivals. Implementations learn
// online: the traffic engine calls Observe with every judged idle gap in
// deterministic dispatch order, and Predict before the observation so the
// prediction never sees the gap it is judged against. Forecasters are
// stateful and must not be shared between concurrent runs.
type Forecaster interface {
	// Name labels the forecaster in tables and variant tags.
	Name() string
	// Predict estimates fn's next idle gap. ok is false while the
	// forecaster has no usable model for fn (no pre-warm is scheduled).
	Predict(fn string) (p Prediction, ok bool)
	// Observe folds one completed idle gap into fn's model.
	Observe(fn string, idleMs float64)
}

// HistogramPeak defaults.
const (
	// DefaultMinSamples gates predictions until a function has shown this
	// many gaps (matching the HybridHistogram policy's trust threshold).
	DefaultMinSamples = 4
	// DefaultModeWindow is the ±bin window around the modal IAT bin whose
	// observation mass becomes the confidence. Four 8-per-octave bins each
	// side spans roughly 0.7x–1.4x of the modal gap.
	DefaultModeWindow = 4
)

// histogramPeak predicts the modal gap of a per-function log-scale IAT
// histogram.
type histogramPeak struct {
	minSamples int
	window     int
	hists      map[string]*sched.IATHistogram
}

// HistogramPeak returns the histogram-mode forecaster: the predicted next
// gap is the most-populated bin of the function's IAT histogram (the same
// log-scale geometry the HybridHistogram keep-alive policy learns from), and
// the confidence is the fraction of observed gaps within ±window bins of the
// mode. minSamples and window fall back to DefaultMinSamples and
// DefaultModeWindow when non-positive.
func HistogramPeak(minSamples, window int) Forecaster {
	if minSamples <= 0 {
		minSamples = DefaultMinSamples
	}
	if window <= 0 {
		window = DefaultModeWindow
	}
	return &histogramPeak{minSamples: minSamples, window: window,
		hists: map[string]*sched.IATHistogram{}}
}

func (*histogramPeak) Name() string { return "histpeak" }

func (f *histogramPeak) Predict(fn string) (Prediction, bool) {
	h := f.hists[fn]
	if h == nil || h.N() < f.minSamples {
		return Prediction{}, false
	}
	ms, mass := h.Mode(f.window)
	return Prediction{IATms: ms, Confidence: mass}, true
}

func (f *histogramPeak) Observe(fn string, idleMs float64) {
	h := f.hists[fn]
	if h == nil {
		h = &sched.IATHistogram{}
		f.hists[fn] = h
	}
	h.Add(idleMs)
}

// DefaultEWMAAlpha is the smoothing factor balancing burst tracking against
// lull resistance.
const DefaultEWMAAlpha = 0.3

// ewmaState is one function's running estimate.
type ewmaState struct {
	mean   float64 // EWMA of observed gaps
	absErr float64 // EWMA of |observed - predicted|
	n      int
}

// ewma predicts an exponentially weighted moving average of the gaps.
type ewma struct {
	alpha float64
	state map[string]*ewmaState
}

// EWMA returns the exponentially-weighted-moving-average forecaster: the
// predicted next gap is the EWMA of observed gaps, and the confidence is
// 1 - (EWMA of absolute prediction error)/mean, clamped to [0, 1] — a
// forecaster that has been persistently wrong stops scheduling pre-warms.
// alpha falls back to DefaultEWMAAlpha when out of (0, 1].
func EWMA(alpha float64) Forecaster {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultEWMAAlpha
	}
	return &ewma{alpha: alpha, state: map[string]*ewmaState{}}
}

func (*ewma) Name() string { return "ewma" }

func (f *ewma) Predict(fn string) (Prediction, bool) {
	st := f.state[fn]
	if st == nil || st.n < 2 {
		return Prediction{}, false
	}
	conf := 0.0
	if st.mean > 0 {
		conf = 1 - st.absErr/st.mean
		if conf < 0 {
			conf = 0
		}
	}
	return Prediction{IATms: st.mean, Confidence: conf}, true
}

func (f *ewma) Observe(fn string, idleMs float64) {
	st := f.state[fn]
	if st == nil {
		st = &ewmaState{}
		f.state[fn] = st
	}
	if st.n == 0 {
		st.mean = idleMs
	} else {
		err := idleMs - st.mean
		if err < 0 {
			err = -err
		}
		// float64(...) rounds each product, so arm64 cannot fuse it into the add (make fmagate).
		if st.n == 1 {
			st.absErr = err
		} else {
			st.absErr = float64(f.alpha*err) + float64((1-f.alpha)*st.absErr)
		}
		st.mean = float64(f.alpha*idleMs) + float64((1-f.alpha)*st.mean)
	}
	st.n++
}

// oracle predicts the true schedule: the traffic engine peeks each gap into
// it (SetNext) immediately before Predict, so its prediction is exact. It is
// the forecaster upper bound — on a deterministic schedule it never records
// a miss, and the residual gap to the warm reference is the part of the
// lukewarm tax prediction cannot repay.
type oracle struct {
	next map[string]float64
}

// Oracle returns the schedule-peeking forecaster.
func Oracle() Forecaster { return &oracle{next: map[string]float64{}} }

func (*oracle) Name() string { return "oracle" }

// SetNext implements the schedulePeeker seam the Prewarmer feeds the true
// next gap through.
func (f *oracle) SetNext(fn string, iatMs float64) { f.next[fn] = iatMs }

func (f *oracle) Predict(fn string) (Prediction, bool) {
	ms, ok := f.next[fn]
	if !ok {
		// Not peeked (e.g. the end-of-run expiry sweep): the oracle never
		// guesses, so it never schedules a pre-warm it cannot place.
		return Prediction{}, false
	}
	delete(f.next, fn)
	return Prediction{IATms: ms, Confidence: 1}, true
}

func (*oracle) Observe(string, float64) {}

// schedulePeeker is the seam through which the Prewarmer hands the oracle
// the true gap it is about to judge.
type schedulePeeker interface {
	SetNext(fn string, iatMs float64)
}

// NewForecaster builds a fresh forecaster by name ("histpeak", "ewma",
// "oracle") with default parameters, for experiment variant tags. Unknown
// names return nil.
func NewForecaster(name string) Forecaster {
	switch name {
	case "histpeak":
		return HistogramPeak(0, 0)
	case "ewma":
		return EWMA(0)
	case "oracle":
		return Oracle()
	}
	return nil
}
