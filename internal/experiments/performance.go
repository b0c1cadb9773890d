package experiments

import (
	"fmt"
	"slices"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/mem"
	"lukewarm/internal/runner"
	"lukewarm/internal/stats"
	"lukewarm/internal/workload"
)

// PerfRow is one function's Fig. 10-12 measurements on a platform.
type PerfRow struct {
	Name string
	Lang workload.Lang
	// Baseline, Jukebox, Perfect are the three Fig. 10 configurations.
	Baseline measured
	Jukebox  measured
	Perfect  measured
}

// SpeedupJukebox reports Jukebox's % speedup over the baseline.
func (r PerfRow) SpeedupJukebox() float64 {
	return stats.SpeedupPct(normCycles(r.Baseline), normCycles(r.Jukebox))
}

// SpeedupPerfect reports the perfect-I-cache % speedup over the baseline.
func (r PerfRow) SpeedupPerfect() float64 {
	return stats.SpeedupPct(normCycles(r.Baseline), normCycles(r.Perfect))
}

// normCycles compares runs by cycles-per-instruction times a common
// instruction count, so slightly different invocation mixes do not skew
// speedups.
func normCycles(m measured) float64 {
	if m.Instrs == 0 {
		return 0
	}
	return float64(m.Cycles) / float64(m.Instrs) * 1e6
}

// Coverage reports Fig. 11's fractions, normalized to the baseline's L2
// instruction misses: covered (prefetched and used), uncovered (demand L2
// instruction misses remaining with Jukebox), overpredicted (prefetched but
// never referenced).
func (r PerfRow) Coverage() (covered, uncovered, overpredicted float64) {
	misses := r.Baseline.L2.DemandMisses[mem.Instr]
	if misses == 0 {
		return 0, 0, 0
	}
	base := float64(misses)
	// Normalize per instruction first: runs may have different lengths.
	scale := float64(r.Baseline.Instrs) / float64(r.Jukebox.Instrs)
	covered = float64(r.Jukebox.L2.PrefetchUsed[mem.Instr]) * scale / base
	uncovered = float64(r.Jukebox.L2.DemandMisses[mem.Instr]) * scale / base
	overpredicted = float64(r.Jukebox.L2.PrefetchEvictedUnused[mem.Instr]) * scale / base
	return
}

// BandwidthOverhead reports Fig. 12's components as fractions of the
// baseline's total DRAM traffic: overpredicted prefetch bytes, metadata
// record bytes, and metadata replay bytes.
func (r PerfRow) BandwidthOverhead() (overpred, metaRecord, metaReplay float64) {
	// Integer-domain sum: float accumulation over a map rounds differently
	// run to run with iteration order.
	var totalBytes uint64
	for _, b := range r.Baseline.DRAM {
		totalBytes += b
	}
	if totalBytes == 0 {
		return 0, 0, 0
	}
	baseTotal := float64(totalBytes)
	scale := float64(r.Baseline.Instrs) / float64(r.Jukebox.Instrs)
	overpred = float64(r.Jukebox.L2.PrefetchEvictedUnused[mem.Instr]*mem.LineSize) * scale / baseTotal
	metaRecord = float64(r.Jukebox.DRAM[mem.TrafficMetadataRecord]) * scale / baseTotal
	metaReplay = float64(r.Jukebox.DRAM[mem.TrafficMetadataReplay]) * scale / baseTotal
	return
}

// PerfResult backs Figs. 10, 11 and 12.
type PerfResult struct {
	Platform string
	Rows     []PerfRow
}

// Performance runs the headline evaluation (Sec. 5.2-5.4): every function
// in the interleaved (lukewarm) regime under three configurations —
// baseline, Jukebox (16 KB metadata), and perfect I-cache — on the given
// platform configuration.
func Performance(opt Options, platform cpu.Config, jbCfg core.Config) (PerfResult, error) {
	opt = opt.withDefaults()
	out := PerfResult{Platform: platform.Name}
	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	var cells []runner.Cell
	for _, w := range suite {
		cells = append(cells,
			opt.cell(w.Name, platform, nil, false, lukewarm),
			opt.cell(w.Name, platform, &jbCfg, false, lukewarm),
			opt.cell(w.Name, platform, nil, true, lukewarm))
	}
	ms, err := opt.Engine.Measure(cells)
	if err != nil {
		return out, err
	}
	for i, w := range suite {
		out.Rows = append(out.Rows, PerfRow{
			Name: w.Name, Lang: w.Lang,
			Baseline: ms[3*i], Jukebox: ms[3*i+1], Perfect: ms[3*i+2],
		})
	}
	return out, nil
}

// GeomeanSpeedups reports the suite geomean speedups (Jukebox, Perfect).
func (r PerfResult) GeomeanSpeedups() (jb, perfect float64) {
	var js, ps []float64
	for _, row := range r.Rows {
		js = append(js, 1+row.SpeedupJukebox()/100)
		ps = append(ps, 1+row.SpeedupPerfect()/100)
	}
	return (stats.GeoMean(js) - 1) * 100, (stats.GeoMean(ps) - 1) * 100
}

// Fig10Table renders the headline speedups.
func (r PerfResult) Fig10Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Figure 10: speedup over interleaved baseline (%s)", r.Platform),
		"Function", "Jukebox", "Perfect I-cache", "Jukebox bar")
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			fmt.Sprintf("%.1f%%", row.SpeedupJukebox()),
			fmt.Sprintf("%.1f%%", row.SpeedupPerfect()),
			stats.Bar(row.SpeedupJukebox(), 60, 30))
	}
	jb, pf := r.GeomeanSpeedups()
	t.AddRow("GEOMEAN", fmt.Sprintf("%.1f%%", jb), fmt.Sprintf("%.1f%%", pf), "")
	return t
}

// Fig11Table renders miss coverage.
func (r PerfResult) Fig11Table() *stats.Table {
	t := stats.NewTable("Figure 11: L2 instruction misses covered/uncovered/overpredicted (% of baseline misses)",
		"Function", "Covered", "Uncovered", "Overpredicted")
	var cs, us, os stats.Summary
	for _, row := range r.Rows {
		c, u, o := row.Coverage()
		cs.Add(c)
		us.Add(u)
		os.Add(o)
		t.AddRow(row.Name,
			fmt.Sprintf("%.0f%%", c*100), fmt.Sprintf("%.0f%%", u*100), fmt.Sprintf("%.0f%%", o*100))
	}
	t.AddRow("MEAN",
		fmt.Sprintf("%.0f%%", cs.Mean()*100), fmt.Sprintf("%.0f%%", us.Mean()*100),
		fmt.Sprintf("%.0f%%", os.Mean()*100))
	return t
}

// MeanCoverageByLang reports mean covered fraction per language (the
// Fig. 11 observation: Go 75-90%, Python/NodeJS 48-74%).
func (r PerfResult) MeanCoverageByLang() map[workload.Lang]float64 {
	sums := map[workload.Lang]*stats.Summary{}
	for _, row := range r.Rows {
		c, _, _ := row.Coverage()
		if sums[row.Lang] == nil {
			sums[row.Lang] = &stats.Summary{}
		}
		sums[row.Lang].Add(c)
	}
	langs := make([]workload.Lang, 0, len(sums))
	for l := range sums {
		langs = append(langs, l)
	}
	slices.Sort(langs)
	out := map[workload.Lang]float64{}
	for _, l := range langs {
		out[l] = sums[l].Mean()
	}
	return out
}

// Fig12Table renders the memory-bandwidth overhead decomposition.
func (r PerfResult) Fig12Table() *stats.Table {
	t := stats.NewTable("Figure 12: memory bandwidth increase over baseline",
		"Function", "Overpredicted", "Metadata record", "Metadata replay", "Total")
	var tot stats.Summary
	for _, row := range r.Rows {
		o, mr, mp := row.BandwidthOverhead()
		total := (o + mr + mp) * 100
		tot.Add(total)
		t.AddRow(row.Name,
			fmt.Sprintf("%.1f%%", o*100), fmt.Sprintf("%.1f%%", mr*100),
			fmt.Sprintf("%.1f%%", mp*100), fmt.Sprintf("%.1f%%", total))
	}
	t.AddRow("MEAN", "", "", "", fmt.Sprintf("%.1f%%", tot.Mean()))
	return t
}

// Fig9Row is one metadata-budget point.
type Fig9Row struct {
	BudgetKB int
	// SpeedupPct maps function name (plus "GEOMEAN") to speedup over the
	// no-Jukebox baseline.
	SpeedupPct map[string]float64
}

// Fig9Result backs Fig. 9. The swept budgets are carried per-row
// (Fig9Row.BudgetKB).
type Fig9Result struct {
	Functions []string
	Rows      []Fig9Row
}

// Fig9 sweeps Jukebox's per-direction metadata budget (the paper plots 8,
// 12, 16 and 32 KB) for the three per-language representatives, with the
// geomean computed over the whole selected suite.
func Fig9(opt Options) (Fig9Result, error) {
	opt = opt.withDefaults()
	budgets := []int{8 << 10, 12 << 10, 16 << 10, 32 << 10}
	reps := workload.Representatives()
	out := Fig9Result{Functions: reps}

	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	// One batch: the no-Jukebox baselines first, then every budget point.
	var cells []runner.Cell
	for _, w := range suite {
		cells = append(cells, opt.cell(w.Name, cpu.SkylakeConfig(), nil, false, lukewarm))
	}
	for _, b := range budgets {
		jb := core.DefaultConfig()
		jb.MetadataBytes = b
		for _, w := range suite {
			cfg := jb
			cells = append(cells, opt.cell(w.Name, cpu.SkylakeConfig(), &cfg, false, lukewarm))
		}
	}
	ms, err := opt.Engine.Measure(cells)
	if err != nil {
		return out, err
	}
	baseCycles := map[string]float64{}
	for i, w := range suite {
		baseCycles[w.Name] = normCycles(ms[i])
	}
	for bi, b := range budgets {
		row := Fig9Row{BudgetKB: b / 1024, SpeedupPct: map[string]float64{}}
		var all []float64
		for wi, w := range suite {
			m := ms[len(suite)*(1+bi)+wi]
			sp := stats.SpeedupPct(baseCycles[w.Name], normCycles(m))
			all = append(all, 1+sp/100)
			for _, rep := range reps {
				if rep == w.Name {
					row.SpeedupPct[rep] = sp
				}
			}
		}
		row.SpeedupPct["GEOMEAN"] = (stats.GeoMean(all) - 1) * 100
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table renders the budget sweep.
func (r Fig9Result) Table() *stats.Table {
	hdr := append(append([]string{"Budget"}, r.Functions...), "GEOMEAN")
	t := stats.NewTable("Figure 9: speedup vs Jukebox metadata budget", hdr...)
	for _, row := range r.Rows {
		cells := []string{fmt.Sprintf("%dKB", row.BudgetKB)}
		for _, fn := range r.Functions {
			if v, ok := row.SpeedupPct[fn]; ok {
				cells = append(cells, fmt.Sprintf("%.1f%%", v))
			} else {
				cells = append(cells, "-")
			}
		}
		cells = append(cells, fmt.Sprintf("%.1f%%", row.SpeedupPct["GEOMEAN"]))
		t.AddRow(cells...)
	}
	return t
}
