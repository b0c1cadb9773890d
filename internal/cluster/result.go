package cluster

import (
	"fmt"
	"strings"

	"lukewarm/internal/faults"
	"lukewarm/internal/predict"
	"lukewarm/internal/serverless"
	"lukewarm/internal/stats"
)

// TierNames labels the brownout ladder's degradation tiers, by tier index.
var TierNames = [4]string{"full-service", "shed-low-priority", "record-only", "reject"}

// Result aggregates one fleet simulation.
type Result struct {
	// Nodes is the fleet size.
	Nodes int
	// Offered counts injected requests; every one resolves exactly once as
	// Served, Shed or Failed (the availability conservation invariant).
	Offered int
	// Served counts requests that completed with a response.
	Served int
	// Shed counts requests the brownout ladder dropped deliberately.
	Shed int
	// Failed counts requests lost to faults after exhausting resilience.
	Failed int
	// ShedLowPriority and TierRejected decompose Shed: tier-1 low-priority
	// sheds and tier-3 wholesale rejections.
	ShedLowPriority, TierRejected int
	// DeadlineFailed and RetriesExhausted decompose Failed: requests that
	// blew their end-to-end deadline waiting on backoff, and requests whose
	// last permitted attempt failed.
	DeadlineFailed, RetriesExhausted int
	// FailedAttempts counts dispatch attempts that failed (transient
	// flakes, instance crashes, no healthy node); each one either became a
	// retry or exhausted the budget: FailedAttempts == Retries +
	// RetriesExhausted, the no-double-count invariant.
	FailedAttempts int
	// Retries counts scheduled backoff retries.
	Retries int
	// Hedges counts hedged dispatches, WastedHedges the hedge races where
	// both copies completed (the loser's work is pure waste), HedgeRescues
	// the races where the hedge saved a failed primary.
	Hedges, WastedHedges, HedgeRescues int
	// WastedHedgeCycles sums the losing copies' service cycles — the
	// compute bill of the hedging insurance.
	WastedHedgeCycles float64
	// DispatchFlakes, InstanceCrashes and NodeCrashes count fired fleet
	// faults; Ejections and Readmissions count health-checker actions.
	DispatchFlakes, InstanceCrashes, NodeCrashes int
	Ejections, Readmissions                      int
	// ServedWhileDown counts completions attributed to a node that was down
	// or ejected at dispatch — a tripwire that must stay zero.
	ServedWhileDown int
	// ColdServed, LukewarmServed and WarmServed split served requests by
	// warmth class at dispatch; the matching Summary fields carry each
	// class's CPI distribution (the fleet-scope cold/lukewarm/warm split).
	ColdServed, LukewarmServed, WarmServed int
	ColdCPI, LukewarmCPI, WarmCPI          stats.Summary
	// LatencyCycles summarizes end-to-end request latency — original
	// arrival to winning completion, so backoff waits and retry queueing
	// inflate it.
	LatencyCycles stats.Summary
	// TimeInTierMs is simulated time spent in each degradation tier.
	TimeInTierMs [4]float64
	// TierShifts counts brownout-ladder transitions.
	TierShifts int
	// Injections totals fired fault injections across the plan.
	Injections uint64
	// SimulatedMs is the fleet's simulated span (slowest node).
	SimulatedMs float64
	// PerNode carries each node's full traffic result, in node order.
	PerNode []serverless.TrafficResult

	// latencies holds the served requests' latencies in ascending order.
	// The run merges new ones in at each hedge-delay refresh and at the
	// end, so the refresh's P99 does not re-sort the whole history.
	latencies []float64
}

// Availability is the fraction of offered requests that were served.
func (r *Result) Availability() float64 {
	return stats.Ratio(float64(r.Served), float64(r.Offered))
}

// P50LatencyCycles reports the median end-to-end latency.
func (r *Result) P50LatencyCycles() float64 { return stats.PercentileSorted(r.latencies, 50) }

// P95LatencyCycles reports the 95th-percentile end-to-end latency.
func (r *Result) P95LatencyCycles() float64 { return stats.PercentileSorted(r.latencies, 95) }

// P99LatencyCycles reports the 99th-percentile end-to-end latency.
func (r *Result) P99LatencyCycles() float64 { return stats.PercentileSorted(r.latencies, 99) }

// PrewarmLedger aggregates every node's predictive pre-warm ledger — the
// fleet-wide speculation bill. Zero when Traffic.Predict is not armed.
func (r *Result) PrewarmLedger() predict.Ledger {
	var l predict.Ledger
	for i := range r.PerNode {
		l.Add(r.PerNode[i].Prewarm)
	}
	return l
}

// Counters flattens the result into the conservation ledger
// faults.AuditFleet checks.
func (r *Result) Counters() faults.FleetCounters {
	c := faults.FleetCounters{
		Offered: r.Offered, Served: r.Served, Shed: r.Shed, Failed: r.Failed,
		ShedLowPriority: r.ShedLowPriority, TierRejected: r.TierRejected,
		DeadlineFailed: r.DeadlineFailed, RetriesExhausted: r.RetriesExhausted,
		FailedAttempts: r.FailedAttempts, Retries: r.Retries,
		Hedges: r.Hedges, WastedHedges: r.WastedHedges, HedgeRescues: r.HedgeRescues,
		InstanceCrashes: r.InstanceCrashes,
		ServedWhileDown: r.ServedWhileDown,
	}
	for i := range r.PerNode {
		n := &r.PerNode[i]
		c.NodeOffered += n.Offered
		c.NodeServed += n.Served
		c.NodeShed += n.Shed
		c.NodeFailed += n.Failed
		// The fleet front end owns overload shedding, so any node-valve
		// shed would surface here and unbalance the Shed breakdown.
		c.ValveShed += n.Shed
	}
	return c
}

// Audit checks the fleet run's conservation invariants: the fleet ledger
// (faults.AuditFleet), every per-node traffic result, and the warmth-class
// split of served requests.
func Audit(r *Result) error {
	if err := faults.AuditFleet(r.Counters()); err != nil {
		return err
	}
	for i := range r.PerNode {
		if err := faults.AuditTraffic(r.PerNode[i]); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	if r.ColdServed+r.LukewarmServed+r.WarmServed != r.Served {
		return fmt.Errorf("cluster: audit: class split %d+%d+%d != served %d",
			r.ColdServed, r.LukewarmServed, r.WarmServed, r.Served)
	}
	if n := r.ColdCPI.N() + r.LukewarmCPI.N() + r.WarmCPI.N(); n != r.Served {
		return fmt.Errorf("cluster: audit: %d class CPI samples for %d served", n, r.Served)
	}
	if r.LatencyCycles.N() != r.Served {
		return fmt.Errorf("cluster: audit: %d latency samples for %d served", r.LatencyCycles.N(), r.Served)
	}
	return nil
}

// Summary is the flat, gob-safe projection of a Result (plain values only),
// the form experiment runners cache inside runner.Measurement.
type Summary struct {
	Nodes                                        int
	Offered, Served, Shed, Failed                int
	ShedLowPriority, TierRejected                int
	DeadlineFailed, RetriesExhausted             int
	FailedAttempts, Retries                      int
	Hedges, WastedHedges, HedgeRescues           int
	WastedHedgeCycles                            float64
	DispatchFlakes, InstanceCrashes, NodeCrashes int
	Ejections, Readmissions                      int
	ColdServed, LukewarmServed, WarmServed       int
	ColdCPI, LukewarmCPI, WarmCPI                float64
	AvailabilityPct                              float64
	MeanLatencyCycles                            float64
	P50LatencyCyc, P95LatencyCyc, P99LatencyCyc  float64
	TimeInTierMs                                 [4]float64
	TierShifts                                   int
	Injections                                   uint64
	SimulatedMs                                  float64
	PerNode                                      []serverless.TrafficResult
}

// Summary projects the result into its cacheable form.
func (r *Result) Summary() Summary {
	return Summary{
		Nodes:   r.Nodes,
		Offered: r.Offered, Served: r.Served, Shed: r.Shed, Failed: r.Failed,
		ShedLowPriority: r.ShedLowPriority, TierRejected: r.TierRejected,
		DeadlineFailed: r.DeadlineFailed, RetriesExhausted: r.RetriesExhausted,
		FailedAttempts: r.FailedAttempts, Retries: r.Retries,
		Hedges: r.Hedges, WastedHedges: r.WastedHedges, HedgeRescues: r.HedgeRescues,
		WastedHedgeCycles: r.WastedHedgeCycles,
		DispatchFlakes:    r.DispatchFlakes, InstanceCrashes: r.InstanceCrashes,
		NodeCrashes: r.NodeCrashes, Ejections: r.Ejections, Readmissions: r.Readmissions,
		ColdServed: r.ColdServed, LukewarmServed: r.LukewarmServed, WarmServed: r.WarmServed,
		ColdCPI: r.ColdCPI.Mean(), LukewarmCPI: r.LukewarmCPI.Mean(), WarmCPI: r.WarmCPI.Mean(),
		AvailabilityPct:   r.Availability() * 100,
		MeanLatencyCycles: r.LatencyCycles.Mean(),
		P50LatencyCyc:     r.P50LatencyCycles(),
		P95LatencyCyc:     r.P95LatencyCycles(),
		P99LatencyCyc:     r.P99LatencyCycles(),
		TimeInTierMs:      r.TimeInTierMs,
		TierShifts:        r.TierShifts,
		Injections:        r.Injections,
		SimulatedMs:       r.SimulatedMs,
		PerNode:           r.PerNode,
	}
}

// String renders a multi-line fleet report.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet of %d nodes over %.0f ms simulated: availability %.2f%% (%d served / %d shed / %d failed of %d offered)\n",
		r.Nodes, r.SimulatedMs, r.Availability()*100, r.Served, r.Shed, r.Failed, r.Offered)
	fmt.Fprintf(&b, "  warmth split: %d cold (CPI %.3f), %d lukewarm (CPI %.3f), %d warm (CPI %.3f)\n",
		r.ColdServed, r.ColdCPI.Mean(), r.LukewarmServed, r.LukewarmCPI.Mean(), r.WarmServed, r.WarmCPI.Mean())
	fmt.Fprintf(&b, "  latency: mean %.0f / p50 %.0f / p95 %.0f / p99 %.0f cycles (retry- and backoff-inflated)\n",
		r.LatencyCycles.Mean(), r.P50LatencyCycles(), r.P95LatencyCycles(), r.P99LatencyCycles())
	fmt.Fprintf(&b, "  resilience: %d retries, %d exhausted, %d deadline-failed, %d failed attempts; %d hedges (%d wasted costing %.0f cycles, %d rescues)\n",
		r.Retries, r.RetriesExhausted, r.DeadlineFailed, r.FailedAttempts,
		r.Hedges, r.WastedHedges, r.WastedHedgeCycles, r.HedgeRescues)
	fmt.Fprintf(&b, "  faults: %d node crashes, %d instance crashes, %d dispatch flakes (%d injections total); health: %d ejections, %d readmissions, %d served-while-down\n",
		r.NodeCrashes, r.InstanceCrashes, r.DispatchFlakes, r.Injections,
		r.Ejections, r.Readmissions, r.ServedWhileDown)
	fmt.Fprintf(&b, "  brownout: %d low-priority shed, %d rejected; %d tier shifts; time in tier", r.ShedLowPriority, r.TierRejected, r.TierShifts)
	for i, ms := range r.TimeInTierMs {
		fmt.Fprintf(&b, " %s=%.0fms", TierNames[i], ms)
	}
	b.WriteString("\n")
	if l := r.PrewarmLedger(); l.Scheduled > 0 || l.BudgetDenied > 0 {
		fmt.Fprintf(&b, "  pre-warms: %d scheduled fleet-wide (%d used / %d partial / %d wasted, %d expired), %d budget-denied, %.1f KiB wasted replay\n",
			l.Scheduled, l.Used, l.Partial, l.Wasted, l.Expired, l.BudgetDenied,
			float64(l.WastedReplayBytes)/1024)
	}
	for i := range r.PerNode {
		fmt.Fprintf(&b, "  node %d: %s\n", i, r.PerNode[i].String())
	}
	return b.String()
}

// AvailabilityPct mirrors Result.Availability as a percentage.
func (s Summary) Availability() float64 { return s.AvailabilityPct / 100 }
