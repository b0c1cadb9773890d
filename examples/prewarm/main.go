// Predictive pre-warming: spend speculative replay to buy back the lukewarm
// penalty. Under production restore semantics the dispatch-time warm-up
// replay blocks the invocation (TrafficConfig.SyncReplay), so every arrival
// that finds its instance merely resident — not pre-warmed — pays the
// restore on its critical path. A forecaster that predicts the next arrival
// can run that replay early, off the critical path; a forecaster that fires
// into a lull wastes the replay bytes and the ledger says so.
//
// This walkthrough serves the same bursty traffic three ways on a host
// carrying both warm-up mechanisms (Jukebox instruction-region replay +
// REAP page-manifest restore):
//
//   - bare: no prediction — every dispatch pays its synchronous replay
//   - histogram: the ATC'20-style IAT-histogram forecaster, which must
//     learn the rhythm online and mispredicts the bursts' lulls
//   - oracle: an upper bound that peeks at the true schedule
//
// The readiness ladder (cold -> resident -> pre-warmed -> executing) is
// accounted in wall-clock: TierPrewarmedMs is time instances sat ready
// ahead of a predicted arrival.
//
//	go run ./examples/prewarm
package main

import (
	"fmt"
	"log"

	"lukewarm"
)

var funcs = []string{"Auth-G", "Email-P"}

// serve runs bursty traffic with synchronous restore semantics; fc "" leaves
// prediction off, otherwise it names the forecaster to arm.
func serve(fc string, leadMs float64) lukewarm.TrafficResult {
	jb := lukewarm.DefaultJukeboxConfig()
	rc := lukewarm.DefaultReapConfig()
	srv := lukewarm.NewServer(lukewarm.ServerConfig{Jukebox: &jb, Reap: &rc})
	for _, name := range funcs {
		w, err := lukewarm.FunctionByName(name)
		if err != nil {
			log.Fatal(err)
		}
		srv.Deploy(w)
	}
	cfg := lukewarm.TrafficConfig{
		MeanIATms:              64,
		Bursty:                 true,
		InvocationsPerInstance: 16,
		AmbientThrash:          true,
		SyncReplay:             true,
		Seed:                   29,
	}
	if fc != "" {
		cfg.Predict = &lukewarm.PredictConfig{
			Forecaster: lukewarm.NewForecaster(fc),
			LeadMs:     leadMs,
		}
	}
	res, err := srv.ServeTraffic(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := lukewarm.AuditTraffic(res); err != nil {
		log.Fatalf("traffic audit: %v", err)
	}
	return res
}

func main() {
	const leadMs float64 = 16

	bare := serve("", 0)
	fmt.Printf("bursty traffic on %v, synchronous restore, lead %g ms\n\n", funcs, leadMs)
	show := func(label string, r lukewarm.TrafficResult) {
		l := r.Prewarm
		fmt.Printf("%-10s CPI %.3f   sync replays %2d (%6.2f ms on critical path)   "+
			"pre-warms %d sched / %d used / %d wasted (%.0f KiB wasted)   pre-warmed %4.0f ms\n",
			label, r.CPI.Mean(), r.SyncReplays, r.SyncReplayMs,
			l.Scheduled, l.Used, l.Wasted, float64(l.WastedReplayBytes)/1024,
			r.TierPrewarmedMs)
	}
	show("bare", bare)
	show("histogram", serve("histpeak", leadMs))
	show("oracle", serve("oracle", leadMs))

	fmt.Println("\nA used pre-warm already ran the replay off the critical path, so the")
	fmt.Println("invocation pays at most the unfinished tail; a wasted one spent real")
	fmt.Println("replay bytes on an arrival that never came. Run `lukewarm prewarm`")
	fmt.Println("for the full forecaster x lead x arrival-shape sweep.")
}
