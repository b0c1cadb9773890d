package experiments

import (
	"fmt"

	"lukewarm/internal/runner"
	"lukewarm/internal/serverless"
	"lukewarm/internal/stats"
)

// ScalingRow is one core-count point of the multi-core study.
type ScalingRow struct {
	Cores int
	// Baseline and Jukebox are the two configurations' traffic results.
	Baseline, Jukebox serverless.TrafficResult
	// JukeboxGainPct is the mean-service-time reduction with Jukebox.
	JukeboxGainPct float64
}

// ScalingResult backs the multi-core extension: the suite under saturating
// Poisson traffic on 1, 2 and 4 cores (private L1/L2, shared LLC and memory
// controller), baseline vs Jukebox. It validates the Sec. 3.4.1 property
// that Jukebox's in-memory metadata follows an instance to whichever core
// the scheduler picks.
type ScalingResult struct {
	Rows []ScalingRow
}

// Scaling runs the study.
func Scaling(opt Options) (ScalingResult, error) {
	opt = opt.withDefaults()
	var out ScalingResult
	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	coreCounts := []int{1, 2, 4}
	// Each (cores, config) traffic simulation is an independent cell. The
	// mean IAT saturates one core and is comfortable for four; ambient
	// thrash stands in for the larger fleet the deployed suite samples.
	var cells []runner.Cell
	for _, cores := range coreCounts {
		cells = append(cells, opt.jukeboxPair("scaling", suite, cores, 4, 11)...)
	}
	ms, err := opt.Engine.Measure(cells)
	if err != nil {
		return out, err
	}
	for ci, cores := range coreCounts {
		row := ScalingRow{Cores: cores, Baseline: *ms[2*ci].Traffic, Jukebox: *ms[2*ci+1].Traffic}
		row.JukeboxGainPct = stats.SpeedupPct(
			row.Baseline.ServiceCycles.Mean(), row.Jukebox.ServiceCycles.Mean())
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table renders the study.
func (r ScalingResult) Table() *stats.Table {
	t := stats.NewTable("Multi-core scaling (shared LLC, saturating Poisson traffic)",
		"Cores", "Base p99 lat [cyc]", "JB p99 lat [cyc]", "Base busy", "JB busy", "JB service gain")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprint(row.Cores),
			fmt.Sprintf("%.0f", row.Baseline.P99LatencyCycles),
			fmt.Sprintf("%.0f", row.Jukebox.P99LatencyCycles),
			fmt.Sprintf("%.0f%%", row.Baseline.BusyFraction*100),
			fmt.Sprintf("%.0f%%", row.Jukebox.BusyFraction*100),
			fmt.Sprintf("%.1f%%", row.JukeboxGainPct))
	}
	return t
}
