package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: lukewarm/internal/cluster
cpu: whatever
BenchmarkFleetChaos-8   	       5	 214631842 ns/op
BenchmarkFleetFaultFree-8 	       6	 180000000 ns/op	  12 B/op	   3 allocs/op
PASS
ok  	lukewarm/internal/cluster	3.1s
pkg: lukewarm
BenchmarkExtensionCluster-8 	       1	1000000000 ns/op	        97.50 avail%
`
	recs, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("parsed %d records, want 3", len(recs))
	}
	if recs[0].Name != "BenchmarkFleetChaos-8" || recs[0].Package != "lukewarm/internal/cluster" {
		t.Errorf("first record = %+v", recs[0])
	}
	if recs[0].Iterations != 5 || recs[0].Metrics["ns/op"] != 214631842 {
		t.Errorf("first record counters = %+v", recs[0])
	}
	if recs[1].Metrics["allocs/op"] != 3 {
		t.Errorf("second record metrics = %+v", recs[1].Metrics)
	}
	if recs[2].Package != "lukewarm" || recs[2].Metrics["avail%"] != 97.5 {
		t.Errorf("third record = %+v", recs[2])
	}

	if _, err := parse(bufio.NewScanner(strings.NewReader("Benchmark-X 2 oops ns/op junk extra\n"))); err == nil {
		t.Error("malformed value accepted")
	}
}

// TestSummarizeSamples pins the -count contract: repeated lines of one
// benchmark fold into a single record of medians with the extremes beside
// them, in first-seen order, and a bench of the same name in another
// package stays separate.
func TestSummarizeSamples(t *testing.T) {
	in := `pkg: lukewarm
BenchmarkSimulationThroughput-2 	1	1 ns/op	20.0 Minstr/s
BenchmarkSimulationThroughput-2 	1	1 ns/op	17.0 Minstr/s
BenchmarkOther-2 	3	50 ns/op
BenchmarkSimulationThroughput-2 	1	1 ns/op	23.0 Minstr/s
BenchmarkSimulationThroughput-2 	1	1 ns/op	19.0 Minstr/s
BenchmarkSimulationThroughput-2 	1	1 ns/op	21.0 Minstr/s
BenchmarkOther-2 	3	70 ns/op
pkg: lukewarm/internal/mem
BenchmarkOther-2 	9	5 ns/op
`
	samples, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	recs := summarize(samples)
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3: %+v", len(recs), recs)
	}
	thr := recs[0]
	if thr.Name != "BenchmarkSimulationThroughput-2" || thr.Samples != 5 ||
		thr.Metrics["Minstr/s"] != 20 || thr.Min["Minstr/s"] != 17 || thr.Max["Minstr/s"] != 23 {
		t.Errorf("throughput record = %+v", thr)
	}
	if other := recs[1]; other.Package != "lukewarm" || other.Samples != 2 || other.Metrics["ns/op"] != 60 ||
		other.Min["ns/op"] != 50 || other.Max["ns/op"] != 70 {
		t.Errorf("even-count record = %+v, want the mean of the middle pair", other)
	}
	if mem := recs[2]; mem.Package != "lukewarm/internal/mem" || mem.Samples != 1 || mem.Metrics["ns/op"] != 5 {
		t.Errorf("single-sample record = %+v", mem)
	}
}
