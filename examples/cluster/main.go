// Cluster: what node failures cost a fleet of lukewarm-function servers,
// and what a resilient front end buys back. Every single-node result in
// this repository assumes the node stays up; a crash destroys exactly the
// state those results bank on — warm instances, cache contents, and the
// Jukebox metadata that makes rescheduled invocations fast. This
// walkthrough runs the same three-node fleet through rising failure rates,
// first with the front end stripped bare, then with the full resilience
// stack (retry/backoff, hedged requests, health ejection) switched on.
//
// Everything is seeded and deterministic: fault draws are keyed to the
// request, so a run replays bit-for-bit and the set of requests struck at a
// low failure rate is a subset of the set struck at a higher one.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"lukewarm"
)

// The co-resident subset deployed on every node.
var funcs = []string{"Auth-G", "Email-P", "Pay-N", "Geo-G"}

func workloads() []lukewarm.Workload {
	var ws []lukewarm.Workload
	for _, name := range funcs {
		w, err := lukewarm.FunctionByName(name)
		if err != nil {
			log.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// fleet builds a three-node configuration at the given failure intensity
// (0 = clean). resilient arms the front end's full recovery stack.
func fleet(intensity float64, resilient bool) lukewarm.FleetConfig {
	cfg := lukewarm.FleetConfig{
		Nodes:     3,
		Workloads: workloads(),
		Traffic: lukewarm.TrafficConfig{
			MeanIATms:              8, // brisk: backlogs form, so hedging has work to do
			Poisson:                true,
			InvocationsPerInstance: 8,
			KeepAlive:              lukewarm.FixedTimeoutKeepAlive(200),
			ColdStartMs:            25,
			Seed:                   7,
		},
	}
	if resilient {
		cfg.DeadlineMs = 300
		cfg.RetryMax = 2
		cfg.RetryBackoffMs = 2
		cfg.HedgeDelayMinMs = 1
		cfg.EjectAfter = 3
		cfg.EjectMs = 50
	}
	if intensity > 0 {
		cfg.Faults = lukewarm.NewFaultPlan(11, lukewarm.FaultKinds()...)
		cfg.DispatchFlakeProb = 0.10 * intensity
		cfg.InstanceCrashProb = 0.05 * intensity
		cfg.NodeCrashMTBFms = 800 / intensity
		cfg.NodeDownMs = 120
	}
	return cfg
}

func show(label string, r lukewarm.FleetResult) {
	fmt.Printf("  %-18s %6.1f%% available  %2d node / %2d instance crashes  "+
		"%2d retries  cold/luke/warm %d/%d/%d  p99 %6.0f cyc\n",
		label, r.Availability()*100, r.NodeCrashes, r.InstanceCrashes,
		r.Retries, r.ColdServed, r.LukewarmServed, r.WarmServed,
		r.P99LatencyCycles())
}

func run(cfg lukewarm.FleetConfig) lukewarm.FleetResult {
	r, err := lukewarm.RunFleet(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Every run must balance its request ledger: offered = served + shed +
	// failed, retries never double-count, nothing served by a down node.
	if err := lukewarm.AuditFleetResult(&r); err != nil {
		log.Fatal(err)
	}
	return r
}

func main() {
	fmt.Println("Part 1: a bare fleet under rising failure rates (no retries, no hedging)")
	fmt.Println()
	for _, in := range []float64{0, 0.5, 1, 2} {
		show(fmt.Sprintf("intensity %.1fx", in), run(fleet(in, false)))
	}
	fmt.Println()
	fmt.Println("  Availability falls monotonically: keyed fault draws mean a request")
	fmt.Println("  struck at 0.5x is also struck at 2x, so nothing recovers by luck.")
	fmt.Println("  Node crashes force cold restarts — the warmth (and Jukebox")
	fmt.Println("  metadata) the single-node results assume is simply gone.")
	fmt.Println()

	fmt.Println("Part 2: the same fleet with the resilience stack armed")
	fmt.Println()
	for _, in := range []float64{0.5, 1, 2} {
		r := run(fleet(in, true))
		show(fmt.Sprintf("intensity %.1fx", in), r)
		fmt.Printf("  %18s hedges %d (wasted %d, rescues %d)  ejections %d  failed %d\n",
			"", r.Hedges, r.WastedHedges, r.HedgeRescues, r.Ejections, r.Failed)
	}
	fmt.Println()
	fmt.Println("  Retries and hedging buy most of the availability back, at a price")
	fmt.Println("  the result itemizes: redone work arrives cold or lukewarm, wasted")
	fmt.Println("  hedge copies burn cycles, and the tail latency carries the backoff.")
}
