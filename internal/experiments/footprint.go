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
// instruction blocks and all pairwise Jaccard indices (Sec. 2.5).
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
	rows, err := runner.MapOn(opt.Engine, len(suite),
		func(i int) string { return suite[i].Name + "/footprint" },
		func(i int) (FootprintRow, error) {
			w := suite[i]
			row := FootprintRow{Name: w.Name}
			sets := make([]map[uint64]struct{}, n)
			for i := 0; i < n; i++ {
				sets[i] = w.Program.FootprintBlocks(uint64(i))
				row.KB.Add(float64(len(sets[i])) * 64 / 1024)
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					row.Jaccard.Add(stats.Jaccard(sets[i], sets[j]))
				}
			}
			return row, nil
		})
	if err != nil {
		return out, err
	}
	out.Rows = rows
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
