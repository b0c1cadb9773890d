// Scheduling: what the cluster scheduler can do about lukewarm functions
// before any hardware changes. Placement decides which core serves an
// invocation — and therefore whose microarchitectural leftovers it finds —
// while keep-alive decides whether the instance is still warm in memory at
// all. This walkthrough runs both policy families against the same traffic
// the characterization uses.
//
// Part 1 deploys a subset of the suite co-resident on an 8-core host under
// busy Poisson traffic and compares placement policies: the
// earliest-available baseline scatters each function across cores (every
// invocation lands on someone else's cache state), sticky affinity routes
// it back to the core it warmed most recently, and the Jukebox-aware placer
// keeps instances where their prefetch metadata is already bound. With
// roughly one core available per function, affinity placement keeps each
// function's L1-I and BTB state alive between its invocations — the warmth
// a consolidated host loses.
//
// Part 2 slows traffic down to provider-scale inter-arrival times under a
// diurnal daily rhythm and compares keep-alive policies at the memory
// budget each one spends: a fixed timeout evicts on schedule and eats a
// cold start almost every time, while the hybrid histogram (Shahrad et al.,
// ATC'20) learns each function's rhythm and pre-warms just in time.
//
//	go run ./examples/scheduling
package main

import (
	"fmt"
	"log"

	"lukewarm"
)

// The co-resident subset: enough functions to keep the host busy and make
// placement decisions matter, small enough to run in seconds.
var funcs = []string{"Auth-G", "Pay-N", "Email-P", "ProdL-G", "Curr-N", "Geo-G"}

func deploy(srv *lukewarm.Server) {
	for _, name := range funcs {
		w, err := lukewarm.FunctionByName(name)
		if err != nil {
			log.Fatal(err)
		}
		srv.Deploy(w)
	}
}

// servePlacement runs busy Poisson traffic on an 8-core Jukebox host under
// the given placement policy.
func servePlacement(p lukewarm.Placer) lukewarm.TrafficResult {
	jb := lukewarm.DefaultJukeboxConfig()
	srv := lukewarm.NewServer(lukewarm.ServerConfig{Cores: 8, Jukebox: &jb})
	deploy(srv)
	res, err := srv.ServeTraffic(lukewarm.TrafficConfig{
		MeanIATms:              2, // busy: each function fires every 2 ms
		Poisson:                true,
		InvocationsPerInstance: 6,
		KeepAlive:              lukewarm.FixedTimeoutKeepAlive(200),
		ColdStartMs:            250,
		ShedAfterMs:            50,
		Placer:                 p,
		Seed:                   7,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// serveKeepAlive runs slow diurnal traffic under the given eviction policy.
func serveKeepAlive(ka lukewarm.KeepAlive) lukewarm.TrafficResult {
	srv := lukewarm.NewServer(lukewarm.ServerConfig{Cores: 2})
	deploy(srv)
	res, err := srv.ServeTraffic(lukewarm.TrafficConfig{
		MeanIATms:              400, // provider-scale gaps, compressed
		Diurnal:                true,
		InvocationsPerInstance: 10,
		ColdStartMs:            25, // compressed with the gaps
		KeepAlive:              ka,
		Seed:                   11,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	fmt.Println("Part 1: placement policy, 8 cores, busy Poisson traffic")
	fmt.Println()
	placers := []struct {
		label string
		p     lukewarm.Placer
	}{
		{"earliest-available", lukewarm.EarliestAvailablePlacer()},
		{"round-robin", lukewarm.RoundRobinPlacer()},
		{"sticky-affinity", lukewarm.StickyAffinityPlacer(0)},
		{"jukebox-aware", lukewarm.JukeboxAwarePlacer(0)},
	}
	baseCPI := 0.0
	for i, pl := range placers {
		res := servePlacement(pl.p)
		cpi := res.CPI.Mean()
		if i == 0 {
			baseCPI = cpi
		}
		fmt.Printf("  %-20s CPI %.3f (%+5.1f%% vs baseline)  %3d migrations  %3.0f%% Jukebox coverage  %4.1f%% shed\n",
			pl.label, cpi, (baseCPI/cpi-1)*100,
			res.PlacementMigrations, res.JukeboxCoverage()*100, res.ShedRate()*100)
	}
	fmt.Println()
	fmt.Println("  Sticky placement finds warm L1-I/BTB state the baseline scatters;")
	fmt.Println("  the Jukebox-aware placer trades a little of that for fewer Bind calls.")
	fmt.Println()

	fmt.Println("Part 2: keep-alive policy, diurnal traffic, mean gap 400 ms")
	fmt.Println()
	kas := []struct {
		label string
		ka    lukewarm.KeepAlive
	}{
		{"fixed-timeout 260ms", lukewarm.FixedTimeoutKeepAlive(260)},
		{"hybrid-histogram", lukewarm.HybridKeepAlive(lukewarm.HybridKeepAliveConfig{FallbackMs: 260})},
		{"no-evict", lukewarm.NoEvictKeepAlive()},
	}
	for _, k := range kas {
		res := serveKeepAlive(k.ka)
		resident := res.ResidentMs / float64(res.Served)
		fmt.Printf("  %-20s %5.1f%% cold starts  %3d pre-warm hits  %4.0f ms resident memory per invocation\n",
			k.label, res.ColdStartRate()*100, res.PrewarmHits, resident)
	}
	fmt.Println()
	fmt.Println("  The hybrid policy cold-starts only while learning each function's")
	fmt.Println("  rhythm, then pre-warms just in time — fewer cold starts than the")
	fmt.Println("  fixed timeout at a smaller instance-memory budget. No-evict is the")
	fmt.Println("  zero-cold-start bound at unbounded memory cost.")
}
