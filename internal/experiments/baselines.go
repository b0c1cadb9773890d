package experiments

import (
	"fmt"
	"strings"

	"lukewarm/internal/baselines"
	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/runner"
	"lukewarm/internal/serverless"
	"lukewarm/internal/stats"
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

// baselineConfigs names the compared schemes, in presentation order.
var baselineConfigs = []string{"NextLine", "RECAP", "Jukebox"}

// execBaseline executes "baseline-<scheme>" cells, attaching the scheme's
// prefetcher and reporting its per-instance metadata cost in MetaBytes;
// untagged cells fall through to the standard executor.
func execBaseline(c runner.Cell) (runner.Measurement, error) {
	if c.Variant == "" {
		return runner.Execute(c)
	}
	w, err := suiteByName(c.Workload)
	if err != nil {
		return runner.Measurement{}, err
	}
	switch strings.TrimPrefix(c.Variant, "baseline-") {
	case "Jukebox":
		srv := newServer(c.CPU, c.Jukebox, false)
		inst := srv.Deploy(w)
		m, err := runner.MeasureInstance(srv, inst, c.Mode, c.Warmup, c.Measure, c.Audit)
		if err != nil {
			return m, err
		}
		m.MetaBytes = inst.Jukebox.MetadataFootprintBytes()
		return m, nil
	case "NextLine":
		srv := serverless.New(serverless.Config{CPU: c.CPU})
		srv.AttachCorePrefetcher(baselines.NewNextLineI(srv.Core.Hier, 1))
		inst := srv.Deploy(w)
		return runner.MeasureInstance(srv, inst, c.Mode, c.Warmup, c.Measure, c.Audit)
	case "RECAP":
		srv := serverless.New(serverless.Config{CPU: c.CPU})
		rc := baselines.NewRecap(srv.Core.Hier)
		srv.AttachCorePrefetcher(rc)
		inst := srv.Deploy(w)
		m, err := runner.MeasureInstance(srv, inst, c.Mode, c.Warmup, c.Measure, c.Audit)
		if err != nil {
			return m, err
		}
		m.MetaBytes = rc.Stats.LastMetadataBytes
		return m, nil
	}
	return runner.Measurement{}, fmt.Errorf("experiments: unknown baseline variant %q", c.Variant)
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
	for _, cfg := range baselineConfigs {
		accs[cfg] = &acc{}
	}

	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	stride := 1 + len(baselineConfigs)
	var cells []runner.Cell
	for _, w := range suite {
		cells = append(cells, opt.cell(w.Name, cpu.SkylakeConfig(), nil, false, lukewarm))
		for _, cfg := range baselineConfigs {
			var jb *core.Config
			if cfg == "Jukebox" {
				c := core.DefaultConfig()
				jb = &c
			}
			cells = append(cells, opt.variantCell("baseline-"+cfg, w.Name, cpu.SkylakeConfig(), jb, lukewarm))
		}
	}
	ms, err := opt.Engine.MeasureFunc(cells, execBaseline)
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
		for ci, cfg := range baselineConfigs {
			m := ms[stride*wi+1+ci]
			a := accs[cfg]
			a.speed = append(a.speed, 1+stats.SpeedupPct(normCycles(base), normCycles(m))/100)
			var bytes uint64
			for _, b := range m.DRAM {
				bytes += b
			}
			scale := float64(base.Instrs) / float64(m.Instrs)
			a.bw.Add(stats.Pct(float64(bytes)*scale-float64(baseBytes), float64(baseBytes)))
			a.meta.Add(float64(m.MetaBytes) / 1024)
		}
	}
	for _, cfg := range baselineConfigs {
		a := accs[cfg]
		out.SpeedupPct[cfg] = (stats.GeoMean(a.speed) - 1) * 100
		out.BandwidthPct[cfg] = a.bw.Mean()
		out.MetadataKB[cfg] = a.meta.Mean()
	}
	return out, nil
}

// Table renders the comparison.
func (r BaselinesResult) Table() *stats.Table {
	t := stats.NewTable("Related-work baselines vs Jukebox (lukewarm, Skylake-like)",
		"Scheme", "Geomean speedup", "DRAM traffic increase", "Metadata per instance")
	for _, cfg := range baselineConfigs {
		meta := "-"
		if r.MetadataKB[cfg] > 0 {
			meta = fmt.Sprintf("%.0f KB", r.MetadataKB[cfg])
		}
		t.AddRow(cfg,
			fmt.Sprintf("%.1f%%", r.SpeedupPct[cfg]),
			fmt.Sprintf("%+.0f%%", r.BandwidthPct[cfg]),
			meta)
	}
	return t
}
