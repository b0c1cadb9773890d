package experiments

import (
	"fmt"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/mem"
	"lukewarm/internal/runner"
	"lukewarm/internal/stats"
)

// Table3Result backs Table 3 and the Sec. 5.6 Broadwell study: the
// reduction in L2 and LLC instruction MPKI with Jukebox on both simulated
// platforms, plus the Broadwell geomean speedup.
type Table3Result struct {
	// ReductionPct[platform][level] is the % reduction in instruction MPKI.
	ReductionPct map[string]map[string]float64
	// GeomeanSpeedupPct[platform] is Jukebox's suite geomean speedup.
	GeomeanSpeedupPct map[string]float64
}

// Table3 measures Jukebox's instruction-MPKI reductions on the Skylake-like
// (16 KB metadata, per Sec. 5.1) and Broadwell-like (32 KB metadata, per
// Sec. 5.6's re-assessment for the smaller L2) platforms.
func Table3(opt Options) (Table3Result, error) {
	opt = opt.withDefaults()
	out := Table3Result{
		ReductionPct:      map[string]map[string]float64{},
		GeomeanSpeedupPct: map[string]float64{},
	}
	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	platforms := []struct {
		cfg   cpu.Config
		jbKB  int
		label string
	}{
		{cpu.SkylakeConfig(), 16, "Skylake"},
		{cpu.BroadwellConfig(), 32, "Broadwell"},
	}
	var cells []runner.Cell
	for _, p := range platforms {
		jb := core.DefaultConfig()
		jb.MetadataBytes = p.jbKB << 10
		for _, w := range suite {
			cfg := jb
			cells = append(cells,
				opt.cell(w.Name, p.cfg, nil, false, lukewarm),
				opt.cell(w.Name, p.cfg, &cfg, false, lukewarm))
		}
	}
	ms, err := opt.Engine.Measure(cells)
	if err != nil {
		return out, err
	}
	for pi, p := range platforms {
		var l2Base, l2JB, llcBase, llcJB stats.Summary
		var speedups []float64
		for wi := range suite {
			base := ms[2*(pi*len(suite)+wi)]
			withJB := ms[2*(pi*len(suite)+wi)+1]
			l2Base.Add(base.MPKI(base.L2, mem.Instr))
			l2JB.Add(withJB.MPKI(withJB.L2, mem.Instr))
			llcBase.Add(base.MPKI(base.LLC, mem.Instr))
			llcJB.Add(withJB.MPKI(withJB.LLC, mem.Instr))
			speedups = append(speedups, 1+stats.SpeedupPct(normCycles(base), normCycles(withJB))/100)
		}
		out.ReductionPct[p.label] = map[string]float64{
			"L2":  -stats.Pct(l2JB.Mean()-l2Base.Mean(), l2Base.Mean()),
			"LLC": -stats.Pct(llcJB.Mean()-llcBase.Mean(), llcBase.Mean()),
		}
		out.GeomeanSpeedupPct[p.label] = (stats.GeoMean(speedups) - 1) * 100
	}
	return out, nil
}

// Table renders Table 3 plus the Sec. 5.6 speedups.
func (r Table3Result) Table() *stats.Table {
	t := stats.NewTable("Table 3: reduction in instruction MPKI with Jukebox (plus geomean speedup)",
		"Platform", "L2 instr misses", "LLC instr misses", "Geomean speedup")
	for _, p := range []string{"Skylake", "Broadwell"} {
		t.AddRow(p,
			fmt.Sprintf("-%.0f%%", r.ReductionPct[p]["L2"]),
			fmt.Sprintf("-%.0f%%", r.ReductionPct[p]["LLC"]),
			fmt.Sprintf("%.1f%%", r.GeomeanSpeedupPct[p]))
	}
	return t
}

// Table1 renders the simulated processor parameters (Table 1).
func Table1() *stats.Table {
	cfg := cpu.SkylakeConfig()
	t := stats.NewTable("Table 1: simulated processor parameters (Skylake-like)", "Component", "Value")
	t.AddRow("Architecture", fmt.Sprintf("%s, %0.1f GHz, %d-wide, ROB %d",
		cfg.Name, cfg.FreqGHz, cfg.DispatchWidth, cfg.ROBSize))
	t.AddRow("Branch predictor", fmt.Sprintf("gshare %dK + bimodal %dK + chooser, BTB %dK",
		cfg.BP.GshareEntries>>10, cfg.BP.BimodalEntries>>10, cfg.BP.BTBEntries>>10))
	c := cfg.Hier
	cache := func(cc mem.Config) string {
		return fmt.Sprintf("%dKB, %d-way, %d-cycle", cc.SizeBytes>>10, cc.Ways, cc.HitLatency)
	}
	t.AddRow("L1-I", cache(c.L1I))
	t.AddRow("L1-D", cache(c.L1D)+", next-line prefetcher")
	t.AddRow("L2", cache(c.L2))
	t.AddRow("LLC", cache(c.LLC))
	t.AddRow("DRAM", fmt.Sprintf("%d-cycle access, %d-cycle line period",
		c.DRAM.AccessLatency, c.DRAM.LinePeriod))
	jb := core.DefaultConfig()
	t.AddRow("Jukebox", fmt.Sprintf("CRRB %d entries, %dB regions, %dKB metadata (x2)",
		jb.CRRBEntries, jb.RegionSizeBytes, jb.MetadataBytes>>10))
	return t
}
