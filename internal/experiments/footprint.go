package experiments

import (
	"fmt"

	"lukewarm/internal/runner"
	"lukewarm/internal/stats"
)

// FootprintRow is one function's Fig. 6 measurements.
type FootprintRow struct {
	Name string
	// KB summarizes per-invocation instruction footprints (Fig. 6a).
	KB stats.Summary
	// Jaccard summarizes the pairwise commonality distribution (Fig. 6b).
	Jaccard stats.Summary
}

// FootprintResult backs Figs. 6a and 6b.
type FootprintResult struct {
	Rows []FootprintRow
	// Invocations is the number of invocations traced per function (the
	// paper uses 25, for 300 pairwise comparisons).
	Invocations int
}

// Footprints traces invocations invocations per function — the paper uses
// 25, which invocations <= 0 selects — collecting per-invocation unique
// instruction blocks and all pairwise Jaccard indices (Sec. 2.5). Each
// function is one cached cell whose Measure is the traced invocation count.
func Footprints(opt Options, invocations int) (FootprintResult, error) {
	opt = opt.withDefaults()
	n := invocations
	if n <= 0 {
		n = 25
	}
	out := FootprintResult{Invocations: n}
	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	cells := make([]runner.Cell, len(suite))
	for i, w := range suite {
		cells[i] = runner.Cell{Workload: w.Name, Measure: n, Variant: "footprint",
			Exec: func(c runner.Cell) (m measured, _ error) {
				sets := make([]map[uint64]struct{}, c.Measure)
				for i := range sets {
					sets[i] = w.Program.FootprintBlocks(uint64(i))
					m.FootprintKB.Add(float64(len(sets[i])) * 64 / 1024)
				}
				for i := range sets {
					for j := i + 1; j < len(sets); j++ {
						m.Jaccard.Add(stats.Jaccard(sets[i], sets[j]))
					}
				}
				return m, nil
			}}
	}
	ms, err := opt.Engine.Measure(cells)
	if err != nil {
		return out, err
	}
	for i, w := range suite {
		out.Rows = append(out.Rows, FootprintRow{Name: w.Name, KB: ms[i].FootprintKB, Jaccard: ms[i].Jaccard})
	}
	return out, nil
}

// Fig6aTable renders the footprint sizes.
func (r FootprintResult) Fig6aTable() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Figure 6a: instruction footprints per invocation (%d invocations)", r.Invocations),
		"Function", "Mean KB", "Min KB", "Max KB", "StdDev")
	var mean stats.Summary
	for _, row := range r.Rows {
		mean.Add(row.KB.Mean())
		t.AddRow(row.Name,
			fmt.Sprintf("%.0f", row.KB.Mean()),
			fmt.Sprintf("%.0f", row.KB.Min()),
			fmt.Sprintf("%.0f", row.KB.Max()),
			fmt.Sprintf("%.1f", row.KB.StdDev()))
	}
	t.AddRow("MEAN", fmt.Sprintf("%.0f", mean.Mean()), "", "", "")
	return t
}

// Fig6bTable renders the commonality distributions.
func (r FootprintResult) Fig6bTable() *stats.Table {
	t := stats.NewTable("Figure 6b: pairwise Jaccard commonality of instruction footprints",
		"Function", "Mean", "Min", "Max")
	var mean stats.Summary
	for _, row := range r.Rows {
		mean.Add(row.Jaccard.Mean())
		t.AddRow(row.Name,
			fmt.Sprintf("%.3f", row.Jaccard.Mean()),
			fmt.Sprintf("%.3f", row.Jaccard.Min()),
			fmt.Sprintf("%.3f", row.Jaccard.Max()))
	}
	t.AddRow("MEAN", fmt.Sprintf("%.3f", mean.Mean()), "", "")
	return t
}

// MeanFootprintKB reports the suite-wide mean footprint.
func (r FootprintResult) MeanFootprintKB() float64 {
	var s stats.Summary
	for _, row := range r.Rows {
		s.Add(row.KB.Mean())
	}
	return s.Mean()
}

// HighCommonalityCount reports how many functions have mean Jaccard >= 0.9
// (the paper: all but three).
func (r FootprintResult) HighCommonalityCount() int {
	n := 0
	for _, row := range r.Rows {
		if row.Jaccard.Mean() >= 0.9 {
			n++
		}
	}
	return n
}
