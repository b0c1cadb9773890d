package experiments

import (
	"fmt"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/runner"
	"lukewarm/internal/serverless"
	"lukewarm/internal/stats"
)

// ServerSimResult backs the system-level validation: the whole suite
// co-resident on one host under Poisson invocation traffic, with and
// without Jukebox. Unlike the per-figure experiments, interleaving here is
// *natural* — one instance's execution thrashes the others — so the
// end-to-end benefit emerges without any explicit flushing.
type ServerSimResult struct {
	// Baseline and Jukebox are the two configurations' traffic results.
	Baseline, Jukebox serverless.TrafficResult
	// ThroughputGainPct is the service-time reduction expressed as a
	// throughput gain at fixed load.
	ThroughputGainPct float64
}

// ServerSim deploys the selected suite as co-resident warm instances and
// serves Poisson traffic (mean IAT scaled so the run stays tractable; the
// ambient-thrash model stands in for the thousands of additional instances
// a production host would hold).
func ServerSim(opt Options) (ServerSimResult, error) {
	opt = opt.withDefaults()
	traffic := serverless.TrafficConfig{
		MeanIATms:              30,
		Poisson:                true,
		InvocationsPerInstance: opt.Measure + opt.Warmup,
		AmbientThrash:          true,
		Seed:                   7,
	}
	var out ServerSimResult
	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	// The two configurations are independent full-server simulations; run
	// them as two engine jobs (distributions bypass the result cache).
	trs, err := runner.MapOn(opt.Engine, 2,
		func(i int) string {
			if i == 0 {
				return "serversim/base"
			}
			return "serversim/jukebox"
		},
		func(i int) (serverless.TrafficResult, error) {
			var jb *core.Config
			if i == 1 {
				cfg := core.DefaultConfig()
				jb = &cfg
			}
			srv := serverless.New(serverless.Config{CPU: cpu.SkylakeConfig(), Jukebox: jb})
			for _, w := range suite {
				srv.Deploy(w)
			}
			return srv.ServeTraffic(traffic)
		})
	if err != nil {
		return out, err
	}
	out.Baseline, out.Jukebox = trs[0], trs[1]
	out.ThroughputGainPct = stats.SpeedupPct(
		out.Baseline.ServiceCycles.Mean(), out.Jukebox.ServiceCycles.Mean())
	return out, nil
}

// Table renders the comparison.
func (r ServerSimResult) Table() *stats.Table {
	t := stats.NewTable("System-level traffic simulation (co-resident suite, Poisson arrivals)",
		"Config", "Mean CPI", "Mean service [cyc]", "Mean latency [cyc]", "p99 latency [cyc]", "Busy")
	add := func(label string, tr serverless.TrafficResult) {
		t.AddRow(label,
			fmt.Sprintf("%.3f", tr.CPI.Mean()),
			fmt.Sprintf("%.0f", tr.ServiceCycles.Mean()),
			fmt.Sprintf("%.0f", tr.LatencyCycles.Mean()),
			fmt.Sprintf("%.0f", tr.P99LatencyCycles()),
			fmt.Sprintf("%.0f%%", tr.BusyFraction*100))
	}
	add("Baseline", r.Baseline)
	add("Jukebox", r.Jukebox)
	t.AddRow("Throughput gain", fmt.Sprintf("%.1f%%", r.ThroughputGainPct))
	return t
}
