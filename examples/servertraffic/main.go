// Server traffic: a system-level view of the lukewarm problem. The whole
// 20-function suite is deployed as co-resident warm instances on one host;
// Poisson invocation traffic interleaves their executions naturally (no
// artificial flushing), and the ambient-thrash model stands in for the
// thousands of additional instances a production host would hold. Run once
// without and once with Jukebox to see the end-to-end latency and
// throughput effect.
//
//	go run ./examples/servertraffic [meanIATms]
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"

	"lukewarm"
)

func main() {
	meanIAT := 30.0
	if len(os.Args) > 1 {
		v, err := strconv.ParseFloat(os.Args[1], 64)
		if err != nil {
			log.Fatalf("bad IAT %q: %v", os.Args[1], err)
		}
		meanIAT = v
	}

	traffic := lukewarm.TrafficConfig{
		MeanIATms:              meanIAT,
		Poisson:                true,
		InvocationsPerInstance: 4,
		AmbientThrash:          true,
		Seed:                   42,
	}

	run := func(label string, jb bool) float64 {
		cfg := lukewarm.ServerConfig{}
		if jb {
			j := lukewarm.DefaultJukeboxConfig()
			cfg.Jukebox = &j
		}
		srv := lukewarm.NewServer(cfg)
		for _, w := range lukewarm.Suite() {
			srv.Deploy(w)
		}
		res, err := srv.ServeTraffic(traffic)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Printf("%-10s %s\n", label, res.String())
		return res.ServiceCycles.Mean()
	}

	fmt.Printf("20 co-resident instances, Poisson arrivals, mean IAT %.0f ms per instance\n\n", meanIAT)
	base := run("baseline", false)
	withJB := run("jukebox", true)
	fmt.Printf("\nJukebox cuts mean service time by %.1f%% -> the host serves that much more\n",
		(base/withJB-1)*100)
	fmt.Println("load at the same latency, or the same load at lower latency.")
	fmt.Println("(paper Sec. 1: an 18.7% speedup \"translates into a corresponding throughput improvement\")")
}
