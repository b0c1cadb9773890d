package experiments

import (
	"fmt"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
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
	traffic := serverless.TrafficConfig{
		MeanIATms:              4, // saturating for one core, comfortable for four
		Poisson:                true,
		InvocationsPerInstance: opt.Measure + opt.Warmup,
		AmbientThrash:          true, // the deployed suite samples a larger fleet
		Seed:                   11,
	}
	var out ScalingResult
	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	coreCounts := []int{1, 2, 4}
	// Each (cores, config) traffic simulation is independent; fan all six out.
	// Traffic results are distributions, not Measurements, so they bypass the
	// result cache.
	trs, err := runner.MapOn(opt.Engine, 2*len(coreCounts),
		func(i int) string {
			label := "base"
			if i%2 == 1 {
				label = "jukebox"
			}
			return fmt.Sprintf("scaling/%dcores/%s", coreCounts[i/2], label)
		},
		func(i int) (serverless.TrafficResult, error) {
			var jb *core.Config
			if i%2 == 1 {
				cfg := core.DefaultConfig()
				jb = &cfg
			}
			srv := serverless.New(serverless.Config{CPU: cpu.SkylakeConfig(), Cores: coreCounts[i/2], Jukebox: jb})
			for _, w := range suite {
				srv.Deploy(w)
			}
			return srv.ServeTraffic(traffic)
		})
	if err != nil {
		return out, err
	}
	for ci, cores := range coreCounts {
		row := ScalingRow{Cores: cores, Baseline: trs[2*ci], Jukebox: trs[2*ci+1]}
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
			fmt.Sprintf("%.0f", row.Baseline.P99LatencyCycles()),
			fmt.Sprintf("%.0f", row.Jukebox.P99LatencyCycles()),
			fmt.Sprintf("%.0f%%", row.Baseline.BusyFraction*100),
			fmt.Sprintf("%.0f%%", row.Jukebox.BusyFraction*100),
			fmt.Sprintf("%.1f%%", row.JukeboxGainPct))
	}
	return t
}
