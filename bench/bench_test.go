package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"lukewarm/internal/cfgerr"
	"lukewarm/internal/predict"
	"lukewarm/internal/sched"
)

// Every workload at smoke size. The traced run makes an untraced and a
// traced pass of one seed and counts every op failed unless their digests
// agree, so a correct run shows both that a seed reproduces its simulation
// and that tracing does not perturb it; every auditor must pass too. It
// must report every per-layer metric, with every time measured.
func TestSmokeWorkloads(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			var log bytes.Buffer
			res, tr, err := Run(Config{Workload: def.name, Seed: 7, Trace: true, Smoke: true}, &log)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run incorrect (%d of %d failed):\n%s", res.Failed, res.Attempted, log.String())
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("missing %s", d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s unit %q, want %q", d.Name, m.Unit, d.Unit)
				case (d.Unit == "ns" || d.Unit == "ms") && m.Value == 0:
					t.Errorf("%s is a time but reads 0", d.Name)
				}
			}
			var spans bytes.Buffer
			if err := tr.WriteJSON(&spans); err != nil || !strings.Contains(spans.String(), `"start_ns"`) {
				t.Errorf("spans not written (%v)", err)
			}
		})
	}
}

// An untraced run passes its checks and reports every end-to-end metric,
// with every time measured.
func TestMeasuredRun(t *testing.T) {
	var log bytes.Buffer
	res, tr, err := Run(Config{Workload: "warm-ref", Seed: 3, Seconds: 1, Smoke: true}, &log)
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		t.Error("an untraced run returned a tracer")
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%d of %d ops failed:\n%s", res.Failed, res.Attempted, log.String())
	}
	for _, d := range endToEnd {
		if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value <= 0 {
			t.Errorf("%s = %+v, want a positive value in %s", d.Name, m, d.Unit)
		}
	}
	if res.Metrics["op_ms_p50"].Value > res.Metrics["op_ms_p90"].Value {
		t.Errorf("p50 %v above p90 %v", res.Metrics["op_ms_p50"].Value, res.Metrics["op_ms_p90"].Value)
	}
}

// Each op keeps the fastest time of its repeats, per seed, and a repeat that
// simulates or times other ops than the first pass of its seed is refused.
func TestFastestRepeats(t *testing.T) {
	var f fastest
	for _, p := range []struct {
		slot int
		out  passOut
	}{
		{0, passOut{opMs: []float64{3, 5}, digest: 1}},
		{1, passOut{opMs: []float64{9}, digest: 2}},
		{0, passOut{opMs: []float64{2, 6}, digest: 1}},
		{1, passOut{opMs: []float64{8}, digest: 2}},
	} {
		if err := f.add(p.slot, p.out); err != nil {
			t.Fatal(err)
		}
	}
	if want := [2][]float64{{2, 5}, {8}}; !reflect.DeepEqual(f.ops, want) {
		t.Errorf("fastest %v, want %v", f.ops, want)
	}
	for _, bad := range []passOut{{opMs: []float64{1, 1}, digest: 3}, {opMs: []float64{1}, digest: 1}} {
		if err := f.add(0, bad); err == nil {
			t.Errorf("repeat %+v accepted", bad)
		}
	}
	if want := []float64{2, 5}; !reflect.DeepEqual(f.ops[0], want) {
		t.Errorf("a refused repeat changed the times to %v", f.ops[0])
	}
}

// Cells finish in any order; their times come back in label order.
func TestCellTimesByLabel(t *testing.T) {
	var a, b cellTimes
	fmt.Fprint(&a, "[1/3] f/b 20ms\n[2/3] f/a 10ms\n[3/3] f/c 1.5s (cached)\n")
	fmt.Fprint(&b, "[1/3] f/a 11ms\n")
	fmt.Fprint(&b, "[2/3] f/b 19ms\n")
	if got := a.byLabel(); !reflect.DeepEqual(got, []float64{10, 20}) {
		t.Errorf("byLabel() = %v, want [10 20]", got)
	}
	if got := b.byLabel(); !reflect.DeepEqual(got, []float64{11, 19}) {
		t.Errorf("byLabel() = %v, want [11 19]", got)
	}
}

// The attribution's layer estimates plus its residual are the span total,
// to the nanosecond, and the printed table has a row per layer.
func TestAttributionAddsUp(t *testing.T) {
	def, _ := workloadByName("warm-ref")
	tr := NewTracer()
	r, p, err := runPass(def, 3, true, tr)
	if err != nil {
		t.Fatal(err)
	}
	_, tables, err := p.layers(r.out, tr)
	if err != nil {
		t.Fatal(err)
	}
	a := tables[0]
	if a.totalNs <= 0 || a.totalNs != r.out.host.invokeNs+r.out.host.flushNs {
		t.Fatalf("total %d ns is not the Invoke and flush span total", a.totalNs)
	}
	var sum int64
	for _, row := range a.rows {
		sum += row.estNs
	}
	if sum+a.residualNs() != a.totalNs {
		t.Errorf("estimates %d + residual %d != total %d", sum, a.residualNs(), a.totalNs)
	}
	var out bytes.Buffer
	a.write(&out)
	for _, layer := range []string{"program.walk", "vm.translate", "mem.fetch", "mem.data", "mem.flush",
		"cpu.branch", "core.replay", "core.record", "reap.restore", "reap.record", "residual: cpu.exec", "total"} {
		if !strings.Contains(out.String(), layer) {
			t.Errorf("table lacks %s:\n%s", layer, out.String())
		}
	}
}

// Wrappers hand the simulator the policy it was given: the same name, and
// the oracle's schedule peek, without which it would never predict.
func TestWrappersForward(t *testing.T) {
	tr := NewTracer()
	p := sched.StickyAffinity(4)
	if got := (&tracedPlacer{inner: p, tr: tr}).Name(); got != p.Name() {
		t.Errorf("placer name %q, want %q", got, p.Name())
	}
	k := sched.FixedTimeout(20)
	if got := (&tracedKeepAlive{inner: k, tr: tr}).Name(); got != k.Name() {
		t.Errorf("keep-alive name %q, want %q", got, k.Name())
	}
	for _, name := range []string{"histpeak", "ewma", "oracle"} {
		f := predict.NewForecaster(name)
		w := traceForecaster(f, tr)
		if w.Name() != f.Name() {
			t.Errorf("forecaster name %q, want %q", w.Name(), f.Name())
		}
		_, innerPeeks := f.(schedulePeeker)
		_, wrapperPeeks := w.(schedulePeeker)
		if innerPeeks != wrapperPeeks {
			t.Errorf("%s: wrapper peeks %v, forecaster %v", name, wrapperPeeks, innerPeeks)
		}
	}
	o := traceForecaster(predict.Oracle(), tr)
	o.(schedulePeeker).SetNext("f", 12)
	if pr, ok := o.Predict("f"); !ok || pr.IATms != 12 {
		t.Errorf("wrapped oracle predicted %v, %v after SetNext(12)", pr, ok)
	}
	if n, _ := tr.Total(spanPredict); n != 1 {
		t.Errorf("%d Predict spans, want 1", n)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{{Workload: "nope"}, {Workload: "warm-ref", Seconds: -1}} {
		if err := c.Validate(); !errors.Is(err, cfgerr.ErrBadConfig) {
			t.Errorf("%+v: Validate() = %v, want ErrBadConfig", c, err)
		}
	}
	if _, _, err := Run(Config{Workload: "nope"}, io.Discard); !errors.Is(err, cfgerr.ErrBadConfig) {
		t.Errorf("Run accepted an unknown workload: %v", err)
	}
}

// BENCHMARK.json, at the repository root, must describe this benchmark.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths %v", b.Paths)
	}
	var names []string
	for i, w := range b.Workloads {
		names = append(names, w.Name)
		if i < len(workloads) && w.Why != workloads[i].why {
			t.Errorf("%s: why %q, want %q", w.Name, w.Why, workloads[i].why)
		}
	}
	if !reflect.DeepEqual(names, WorkloadNames()) {
		t.Errorf("workloads %v, want %v", names, WorkloadNames())
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.Name || got[i].Unit != d.Unit || got[i].Better != string(d.Better) {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
