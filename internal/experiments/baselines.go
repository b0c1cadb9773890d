package experiments

import (
	"fmt"

	"lukewarm/internal/baselines"
	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/runner"
	"lukewarm/internal/serverless"
	"lukewarm/internal/stats"
	"lukewarm/internal/workload"
)

// BaselinesResult backs the Sec. 6 related-work comparison: Jukebox against
// a next-line instruction prefetcher and a RECAP-style whole-LLC context
// restoration scheme.
type BaselinesResult struct {
	// SpeedupPct maps configuration -> geomean speedup over the lukewarm
	// baseline.
	SpeedupPct map[string]float64
	// BandwidthPct maps configuration -> mean DRAM traffic increase over
	// the baseline run.
	BandwidthPct map[string]float64
	// MetadataKB maps configuration -> mean per-instance metadata cost.
	MetadataKB map[string]float64
}

// baselineSchemes are the compared schemes, in presentation order. The
// comparator prefetchers carry executors, which report their per-instance
// metadata cost in MetaBytes; Jukebox is a standard cell (Fig. 10's), whose
// cost follows from its configuration.
var baselineSchemes = []struct {
	name string
	exec func(runner.Cell) (runner.Measurement, error)
}{
	{"NextLine", execNextLine},
	{"RECAP", execRecap},
	{"Jukebox", nil},
}

// execNextLine measures a cell with a next-line instruction prefetcher.
func execNextLine(c runner.Cell) (runner.Measurement, error) {
	w, err := workload.ByName(c.Workload)
	if err != nil {
		return runner.Measurement{}, err
	}
	srv := serverless.New(serverless.Config{CPU: c.CPU})
	defer srv.Release()
	srv.AttachCorePrefetcher(baselines.NewNextLineI(srv.Core.Hier, 1))
	return runner.MeasureInstance(srv, srv.Deploy(w), c)
}

// execRecap measures a cell with RECAP-style whole-LLC restoration.
func execRecap(c runner.Cell) (runner.Measurement, error) {
	w, err := workload.ByName(c.Workload)
	if err != nil {
		return runner.Measurement{}, err
	}
	srv := serverless.New(serverless.Config{CPU: c.CPU})
	defer srv.Release()
	rc := baselines.NewRecap(srv.Core.Hier)
	srv.AttachCorePrefetcher(rc)
	m, err := runner.MeasureInstance(srv, srv.Deploy(w), c)
	m.MetaBytes = rc.Stats.LastMetadataBytes
	return m, err
}

// Baselines measures the three schemes across the selected suite on the
// Skylake-like platform.
func Baselines(opt Options) (BaselinesResult, error) {
	opt = opt.withDefaults()
	out := BaselinesResult{
		SpeedupPct:   map[string]float64{},
		BandwidthPct: map[string]float64{},
		MetadataKB:   map[string]float64{},
	}
	type acc struct {
		speed []float64
		bw    stats.Summary
		meta  stats.Summary
	}
	accs := map[string]*acc{}
	for _, sc := range baselineSchemes {
		accs[sc.name] = &acc{}
	}

	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	stride := 1 + len(baselineSchemes)
	var cells []runner.Cell
	for _, w := range suite {
		cells = append(cells, opt.cell(w.Name, cpu.SkylakeConfig(), nil, false, lukewarm))
		for _, sc := range baselineSchemes {
			if sc.exec == nil {
				jb := core.DefaultConfig()
				cells = append(cells, opt.cell(w.Name, cpu.SkylakeConfig(), &jb, false, lukewarm))
				continue
			}
			cells = append(cells, opt.variantCell("baseline-"+sc.name, w.Name, cpu.SkylakeConfig(), nil, lukewarm, sc.exec))
		}
	}
	ms, err := opt.Engine.Measure(cells)
	if err != nil {
		return out, err
	}
	for wi := range suite {
		base := ms[stride*wi]
		// Sum in the integer domain: float accumulation over a map would
		// round differently run to run with iteration order.
		var baseBytes uint64
		for _, b := range base.DRAM {
			baseBytes += b
		}
		for ci, sc := range baselineSchemes {
			m := ms[stride*wi+1+ci]
			a := accs[sc.name]
			a.speed = append(a.speed, 1+stats.SpeedupPct(normCycles(base), normCycles(m))/100)
			var bytes uint64
			for _, b := range m.DRAM {
				bytes += b
			}
			scale := float64(base.Instrs) / float64(m.Instrs)
			// float64(...) rounds the product, so it cannot fuse into the subtract (make fmagate).
			a.bw.Add(stats.Pct(float64(float64(bytes)*scale)-float64(baseBytes), float64(baseBytes)))
			meta := m.MetaBytes
			if sc.exec == nil {
				// A bounded budget costs its record and replay buffers
				// (core.Jukebox.MetadataFootprintBytes).
				meta = 2 * core.DefaultConfig().MetadataBytes
			}
			a.meta.Add(float64(meta) / 1024)
		}
	}
	for _, sc := range baselineSchemes {
		a := accs[sc.name]
		out.SpeedupPct[sc.name] = (stats.GeoMean(a.speed) - 1) * 100
		out.BandwidthPct[sc.name] = a.bw.Mean()
		out.MetadataKB[sc.name] = a.meta.Mean()
	}
	return out, nil
}

// Table renders the comparison.
func (r BaselinesResult) Table() *stats.Table {
	t := stats.NewTable("Related-work baselines vs Jukebox (lukewarm, Skylake-like)",
		"Scheme", "Geomean speedup", "DRAM traffic increase", "Metadata per instance")
	for _, sc := range baselineSchemes {
		meta := "-"
		if r.MetadataKB[sc.name] > 0 {
			meta = fmt.Sprintf("%.0f KB", r.MetadataKB[sc.name])
		}
		t.AddRow(sc.name,
			fmt.Sprintf("%.1f%%", r.SpeedupPct[sc.name]),
			fmt.Sprintf("%+.0f%%", r.BandwidthPct[sc.name]),
			meta)
	}
	return t
}
