package experiments

import (
	"fmt"

	"lukewarm/internal/core"
	"lukewarm/internal/runner"
	"lukewarm/internal/serverless"
	"lukewarm/internal/stats"
	"lukewarm/internal/workload"
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
	var out ServerSimResult
	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	ms, err := opt.Engine.Measure(opt.jukeboxPair("serversim", suite, 1, 30, 7))
	if err != nil {
		return out, err
	}
	out.Baseline, out.Jukebox = *ms[0].Traffic, *ms[1].Traffic
	out.ThroughputGainPct = stats.SpeedupPct(
		out.Baseline.ServiceCycles.Mean(), out.Jukebox.ServiceCycles.Mean())
	return out, nil
}

// jukeboxPair builds the baseline and Jukebox traffic cells of one point of
// the server and scaling studies: suite on cores cores under Poisson
// arrivals at mean IAT iatMs with ambient thrash, Measure+Warmup
// invocations per instance.
func (o Options) jukeboxPair(exp string, suite []workload.Workload, cores int, iatMs float64, seed uint64) []runner.Cell {
	invocs := o.Measure + o.Warmup
	traffic := func() serverless.TrafficConfig {
		return serverless.TrafficConfig{
			MeanIATms: iatMs, Poisson: true, InvocationsPerInstance: invocs,
			AmbientThrash: true, Seed: seed,
		}
	}
	jb := core.DefaultConfig()
	var cells []runner.Cell
	for _, cfg := range []*core.Config{nil, &jb} {
		name := "base"
		if cfg != nil {
			name = "jukebox"
		}
		variant := fmt.Sprintf("%s/%s/cores=%d/iat=%g/inv=%d/seed=%d/poisson/ambient",
			exp, name, cores, iatMs, invocs, seed)
		cells = append(cells, o.trafficCell(variant, suite, cores, cfg, reference, traffic))
	}
	return cells
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
			fmt.Sprintf("%.0f", tr.P99LatencyCycles),
			fmt.Sprintf("%.0f%%", tr.BusyFraction*100))
	}
	add("Baseline", r.Baseline)
	add("Jukebox", r.Jukebox)
	t.AddRow("Throughput gain", fmt.Sprintf("%.1f%%", r.ThroughputGainPct))
	return t
}
