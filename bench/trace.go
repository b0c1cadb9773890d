package bench

import (
	"encoding/json"
	"io"
	"time"

	"lukewarm/internal/predict"
	"lukewarm/internal/sched"
)

// maxSpans bounds the spans a traced run keeps individually; later spans
// still count toward their name's totals. A fleet pass makes ~5 policy calls
// per request, so this holds a whole fleet-tiny pass.
const maxSpans = 400_000

// Span is one timed call at a layer boundary. Start and End are nanoseconds
// since the tracer started; Parent indexes the enclosing span (-1 for a
// root); Request is the index of the operation the call served.
type Span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// spanTotal accumulates every span of one name, kept or not.
type spanTotal struct {
	count int
	ns    int64
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so traced and untraced passes share one code path.
type Tracer struct {
	t0      time.Time
	spans   []Span
	dropped int
	totals  map[string]*spanTotal
	parent  int // span new spans nest under
	request int // request id new spans carry
}

// NewTracer starts a tracer whose clock reads zero now.
func NewTracer() *Tracer {
	return &Tracer{t0: time.Now(), totals: map[string]*spanTotal{}, parent: -1}
}

// open is an unfinished span.
type open struct {
	name  string
	idx   int // index into spans, -1 when not kept
	start int64
}

// Begin opens a span under the current parent.
func (t *Tracer) Begin(name string) open {
	if t == nil {
		return open{}
	}
	o := open{name: name, idx: -1, start: int64(time.Since(t.t0))}
	if len(t.spans) < maxSpans {
		o.idx = len(t.spans)
		t.spans = append(t.spans, Span{Name: name, Start: o.start, End: -1, Parent: t.parent, Request: t.request})
	} else {
		t.dropped++
	}
	return o
}

// End closes o and adds it to its name's totals.
func (t *Tracer) End(o open) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	if o.idx >= 0 {
		t.spans[o.idx].End = end
	}
	tot := t.totals[o.name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[o.name] = tot
	}
	tot.count++
	tot.ns += end - o.start
}

// Scope runs fn inside a span that the spans fn opens nest under.
func (t *Tracer) Scope(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	o := t.Begin(name)
	outer := t.parent
	t.parent = o.idx
	err := fn()
	t.parent = outer
	t.End(o)
	return err
}

// SetRequest tags subsequent spans with request id r.
func (t *Tracer) SetRequest(r int) {
	if t != nil {
		t.request = r
	}
}

// Total reports how many spans of name closed and their summed duration.
func (t *Tracer) Total(name string) (count int, ns int64) {
	if t == nil {
		return 0, 0
	}
	if tot := t.totals[name]; tot != nil {
		return tot.count, tot.ns
	}
	return 0, 0
}

// WriteJSON writes the kept spans and the number dropped past maxSpans.
func (t *Tracer) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(struct {
		Spans   []Span `json:"spans"`
		Dropped int    `json:"dropped"`
	}{t.spans, t.dropped})
}

// Span names of the calls the benchmark times.
const (
	spanOp         = "op"
	spanInvoke     = "serverless.Invoke"
	spanFlush      = "serverless.FlushMicroarch"
	spanRun        = "cluster.Run"
	spanFleetPlace = "sched.FleetPlacer.Place"
	spanNodePlace  = "sched.NodePlacer.Place"
	spanKeepAlive  = "sched.KeepAlive.Decide"
	spanPredict    = "predict.Forecaster.Predict"
	spanObserve    = "predict.Forecaster.Observe"
	spanSched      = "experiments.Sched"
	spanColdstart  = "experiments.Coldstart"
	spanPerf       = "experiments.Performance"
)

// tracedPlacer times every Place call of the placer it wraps. onCall, when
// set, runs first: the fleet placer uses it to stamp and number requests.
type tracedPlacer struct {
	inner  sched.Placer
	tr     *Tracer
	span   string
	onCall func()
}

func (p *tracedPlacer) Name() string { return p.inner.Name() }

func (p *tracedPlacer) Place(r sched.Request, cores []sched.CoreView) int {
	if p.onCall != nil {
		p.onCall()
	}
	o := p.tr.Begin(p.span)
	idx := p.inner.Place(r, cores)
	p.tr.End(o)
	return idx
}

// tracedKeepAlive times every Decide call of the policy it wraps.
type tracedKeepAlive struct {
	inner sched.KeepAlive
	tr    *Tracer
}

func (k *tracedKeepAlive) Name() string { return k.inner.Name() }

func (k *tracedKeepAlive) Decide(fn string, idleMs float64) sched.Decision {
	o := k.tr.Begin(spanKeepAlive)
	d := k.inner.Decide(fn, idleMs)
	k.tr.End(o)
	return d
}

// tracedForecaster times every Predict and Observe call of the forecaster it
// wraps.
type tracedForecaster struct {
	inner predict.Forecaster
	tr    *Tracer
}

func (f *tracedForecaster) Name() string { return f.inner.Name() }

func (f *tracedForecaster) Predict(fn string) (predict.Prediction, bool) {
	o := f.tr.Begin(spanPredict)
	p, ok := f.inner.Predict(fn)
	f.tr.End(o)
	return p, ok
}

func (f *tracedForecaster) Observe(fn string, idleMs float64) {
	o := f.tr.Begin(spanObserve)
	f.inner.Observe(fn, idleMs)
	f.tr.End(o)
}

// schedulePeeker is the optional side of a forecaster that is told the true
// next gap (the oracle). predict type-asserts for it, so a wrapper that hid
// it would silently turn the oracle into a forecaster that never predicts.
type schedulePeeker interface {
	SetNext(fn string, iatMs float64)
}

// peekingForecaster is a tracedForecaster that forwards SetNext.
type peekingForecaster struct {
	*tracedForecaster
	peek schedulePeeker
}

func (f peekingForecaster) SetNext(fn string, iatMs float64) { f.peek.SetNext(fn, iatMs) }

// traceForecaster wraps f, forwarding Name and, when f has it, SetNext.
func traceForecaster(f predict.Forecaster, tr *Tracer) predict.Forecaster {
	w := &tracedForecaster{inner: f, tr: tr}
	if pk, ok := f.(schedulePeeker); ok {
		return peekingForecaster{w, pk}
	}
	return w
}
