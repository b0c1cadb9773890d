package experiments

import (
	"fmt"

	"lukewarm/internal/cluster"
	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/faults"
	"lukewarm/internal/program"
	"lukewarm/internal/runner"
	"lukewarm/internal/sched"
	"lukewarm/internal/serverless"
	"lukewarm/internal/stats"
	"lukewarm/internal/workload"
)

// The cluster experiment takes the paper's single-node story to fleet
// reality: it sweeps node count × failure rate × fleet placement policy and
// reports what failures cost — availability after retries and hedging, the
// cold/lukewarm/warm split of what was actually served (node crashes
// destroy the warm state and Jukebox metadata the single-node results bank
// on), retry-inflated tail latency, wasted hedge work, and time spent in
// brownout tiers. Each sweep point is one runner.Cell with its own executor,
// cached and fanned out like every other experiment.

// Cluster-sweep parameters: a few cores per node under brisk traffic so the
// fleet has queueing to balance, a compressed cold-start charge (as in the
// keep-alive sweep), and a front end with the full resilience stack armed.
const (
	clusterCores     = 4
	clusterIATms     = 30
	clusterColdMs    = 25
	clusterKeepMs    = 200
	clusterSeed      = 31
	clusterFaultSeed = 1009

	clusterDeadlineMs = 150
	clusterRetryMax   = 2
	clusterBackoffMs  = 2
	clusterHedgeMinMs = 1
	clusterEjectAfter = 4
	clusterEjectMs    = 50
	clusterShedLowMs  = 20
	clusterRecOnlyMs  = 40
	clusterRejectMs   = 80
)

// clusterNodeCounts is the fleet-size axis.
var clusterNodeCounts = []int{1, 2, 4}

// clusterFleetPlacers enumerates the fleet placement policies, baseline
// first. Placement runs at node scope here: Last/ForeignSince describe the
// node where a function last completed and how much foreign work it has
// absorbed since — the same warmth signal the per-core policies read.
var clusterFleetPlacers = []string{"EarliestAvailable", "StickyAffinity"}

// clusterFaultLevel is one failure-rate point of the sweep.
type clusterFaultLevel struct {
	name      string
	flakeProb float64
	crashProb float64
	mtbfMs    float64
	downMs    float64
}

// clusterFaultLevels is the failure-rate axis: clean, a production-shaped
// moderate level, and a heavy level where whole-node crashes dominate.
var clusterFaultLevels = []clusterFaultLevel{
	{name: "none"},
	{name: "moderate", flakeProb: 0.04, crashProb: 0.02, mtbfMs: 2000, downMs: 100},
	{name: "heavy", flakeProb: 0.25, crashProb: 0.12, mtbfMs: 500, downMs: 250},
}

// ClusterRow is one (nodes, fault level, fleet policy) cell of the sweep.
type ClusterRow struct {
	// Nodes is the fleet size.
	Nodes int
	// Policy names the fleet placement policy.
	Policy string
	// FaultLevel names the failure-rate point.
	FaultLevel string
	// C is the fleet run's summary.
	C cluster.Summary
}

// ClusterResult backs the `lukewarm cluster` experiment.
type ClusterResult struct {
	// Rows holds the sweep in (policy, fault level, nodes) order.
	Rows []ClusterRow
}

// clusterSpec describes one cell; the Variant tag is derived from it.
type clusterSpec struct {
	nodes  int
	policy string
	level  clusterFaultLevel
	invocs int
}

func (sp clusterSpec) variant() string {
	return fmt.Sprintf("cluster/%s/%s/nodes=%d/cores=%d/iat=%g/inv=%d/seed=%d/fseed=%d/flake=%g/crash=%g/mtbf=%g",
		sp.policy, sp.level.name, sp.nodes, clusterCores, float64(clusterIATms),
		sp.invocs, clusterSeed, clusterFaultSeed, sp.level.flakeProb, sp.level.crashProb, sp.level.mtbfMs)
}

// newFleetPlacer builds a fresh fleet placement policy by name.
func newFleetPlacer(name string) sched.Placer {
	if name == "StickyAffinity" {
		return sched.StickyAffinity(0)
	}
	return sched.EarliestAvailable()
}

// config builds the cell's fleet configuration with fresh policy and fault
// state.
func (sp clusterSpec) config(ws []workload.Workload) cluster.Config {
	cfg := cluster.Config{
		Nodes:     sp.nodes,
		Workloads: ws,
		Traffic: serverless.TrafficConfig{
			MeanIATms:              clusterIATms,
			Poisson:                true,
			InvocationsPerInstance: sp.invocs,
			KeepAlive:              sched.FixedTimeout(clusterKeepMs),
			ColdStartMs:            clusterColdMs,
			Seed:                   clusterSeed,
		},
		FleetPlacer: newFleetPlacer(sp.policy),

		DeadlineMs:      clusterDeadlineMs,
		RetryMax:        clusterRetryMax,
		RetryBackoffMs:  clusterBackoffMs,
		HedgeDelayMinMs: clusterHedgeMinMs,
		EjectAfter:      clusterEjectAfter,
		EjectMs:         clusterEjectMs,
		ShedLowAtMs:     clusterShedLowMs,
		RecordOnlyAtMs:  clusterRecOnlyMs,
		RejectAtMs:      clusterRejectMs,
	}
	jb := core.DefaultConfig()
	cfg.Node = serverless.Config{Cores: clusterCores, Jukebox: &jb}
	// Every second function is low-priority, so the tier-1 shed rung has
	// something to drop under brownout.
	for i, w := range ws {
		if i%2 == 1 {
			cfg.LowPriority = append(cfg.LowPriority, w.Name)
		}
	}
	if sp.level.flakeProb > 0 || sp.level.crashProb > 0 || sp.level.mtbfMs > 0 {
		cfg.Faults = faults.NewPlan(program.Mix(clusterFaultSeed, uint64(sp.nodes)),
			faults.NodeCrash, faults.InstanceCrash, faults.DispatchFlake)
		cfg.DispatchFlakeProb = sp.level.flakeProb
		cfg.InstanceCrashProb = sp.level.crashProb
		cfg.NodeCrashMTBFms = sp.level.mtbfMs
		cfg.NodeDownMs = sp.level.downMs
	}
	return cfg
}

// exec runs the cell's fleet simulation over suite.
func (sp clusterSpec) exec(c runner.Cell, suite []workload.Workload) (runner.Measurement, error) {
	res, err := cluster.Run(sp.config(suite))
	if err != nil {
		return runner.Measurement{}, err
	}
	if c.Audit {
		if err := cluster.Audit(&res); err != nil {
			return runner.Measurement{}, fmt.Errorf("%s: %w", sp.variant(), err)
		}
	}
	sum := res.Summary()
	return runner.Measurement{Cluster: &sum}, nil
}

// Cluster runs the fleet experiment over the selected suite.
func Cluster(opt Options) (ClusterResult, error) {
	opt = opt.withDefaults()
	var out ClusterResult
	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	invocs := opt.Measure + opt.Warmup

	var specs []clusterSpec
	for _, p := range clusterFleetPlacers {
		for _, lvl := range clusterFaultLevels {
			for _, n := range clusterNodeCounts {
				specs = append(specs, clusterSpec{nodes: n, policy: p, level: lvl, invocs: invocs})
			}
		}
	}

	cells := make([]runner.Cell, len(specs))
	for i, sp := range specs {
		cells[i] = opt.variantCell(sp.variant(), suiteTag(suite), cpu.SkylakeConfig(), nil, reference,
			func(c runner.Cell) (runner.Measurement, error) { return sp.exec(c, suite) })
	}

	ms, err := opt.Engine.Measure(cells)
	if err != nil {
		return out, err
	}

	for i, sp := range specs {
		if ms[i].Cluster == nil {
			return out, fmt.Errorf("cluster: cell %s returned no fleet summary", sp.variant())
		}
		out.Rows = append(out.Rows, ClusterRow{
			Nodes: sp.nodes, Policy: sp.policy, FaultLevel: sp.level.name, C: *ms[i].Cluster,
		})
	}
	return out, nil
}

// Row finds one sweep cell.
func (r ClusterResult) Row(nodes int, policy, level string) (ClusterRow, bool) {
	for _, row := range r.Rows {
		if row.Nodes == nodes && row.Policy == policy && row.FaultLevel == level {
			return row, true
		}
	}
	return ClusterRow{}, false
}

// HeavyAvailabilityPct reports the headline metric: availability of the
// largest swept fleet under the heavy fault level with the baseline fleet
// placer — what the resilience front end salvages when everything is
// failing at once.
func (r ClusterResult) HeavyAvailabilityPct() float64 {
	row, ok := r.Row(clusterNodeCounts[len(clusterNodeCounts)-1], clusterFleetPlacers[0], "heavy")
	if !ok {
		return 0
	}
	return row.C.AvailabilityPct
}

// WastedHedgePct reports hedge overhead at the same sweep point: losing
// hedge copies' cycles as a share of all served work, the compute bill of
// the tail-latency insurance.
func (r ClusterResult) WastedHedgePct() float64 {
	row, ok := r.Row(clusterNodeCounts[len(clusterNodeCounts)-1], clusterFleetPlacers[0], "heavy")
	if !ok {
		return 0
	}
	served := 0.0
	for _, n := range row.C.PerNode {
		// float64(...) rounds the product, so it cannot fuse into the add (make fmagate).
		served += float64(n.ServiceCycles.Mean() * float64(n.Served))
	}
	return stats.Pct(row.C.WastedHedgeCycles, served)
}

// Table renders the sweep: availability, warmth split and fault toll per
// (policy, fault level, nodes) cell.
func (r ClusterResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Cluster: node count x failure rate x fleet placement (%d cores/node, retry<=%d, hedged)",
			clusterCores, clusterRetryMax),
		"Placer", "Faults", "Nodes", "Avail", "Cold/Luke/Warm", "Lukewarm CPI",
		"p99 latency [cyc]", "Crashes n/i", "Flakes", "Retries", "Hedge waste [cyc]", "Degraded [ms]")
	for _, row := range r.Rows {
		degraded := row.C.TimeInTierMs[1] + row.C.TimeInTierMs[2] + row.C.TimeInTierMs[3]
		t.AddRow(row.Policy, row.FaultLevel, fmt.Sprint(row.Nodes),
			fmt.Sprintf("%.1f%%", row.C.AvailabilityPct),
			fmt.Sprintf("%d/%d/%d", row.C.ColdServed, row.C.LukewarmServed, row.C.WarmServed),
			fmt.Sprintf("%.3f", row.C.LukewarmCPI),
			fmt.Sprintf("%.0f", row.C.P99LatencyCyc),
			fmt.Sprintf("%d/%d", row.C.NodeCrashes, row.C.InstanceCrashes),
			fmt.Sprint(row.C.DispatchFlakes),
			fmt.Sprint(row.C.Retries),
			fmt.Sprintf("%.0f", row.C.WastedHedgeCycles),
			fmt.Sprintf("%.0f", degraded))
	}
	return t
}

// LatencyTable renders the latency ladder per cell — mean through P99,
// retry- and backoff-inflation included — plus the resilience actions that
// produced it.
func (r ClusterResult) LatencyTable() *stats.Table {
	t := stats.NewTable(
		"Cluster: end-to-end latency ladder (retry- and backoff-inflated)",
		"Placer", "Faults", "Nodes", "Mean [cyc]", "p50", "p95", "p99",
		"Exhausted", "Deadline", "Hedges w/r", "Eject/readmit")
	for _, row := range r.Rows {
		t.AddRow(row.Policy, row.FaultLevel, fmt.Sprint(row.Nodes),
			fmt.Sprintf("%.0f", row.C.MeanLatencyCycles),
			fmt.Sprintf("%.0f", row.C.P50LatencyCyc),
			fmt.Sprintf("%.0f", row.C.P95LatencyCyc),
			fmt.Sprintf("%.0f", row.C.P99LatencyCyc),
			fmt.Sprint(row.C.RetriesExhausted),
			fmt.Sprint(row.C.DeadlineFailed),
			fmt.Sprintf("%d/%d", row.C.WastedHedges, row.C.HedgeRescues),
			fmt.Sprintf("%d/%d", row.C.Ejections, row.C.Readmissions))
	}
	return t
}
