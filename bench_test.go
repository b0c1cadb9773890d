package lukewarm

import (
	"testing"

	"lukewarm/internal/experiments"
	"lukewarm/internal/workload"
)

// Each benchmark regenerates one figure or table of the paper (DESIGN.md
// maps them). They run on reduced options — a cross-language subset and few
// measured invocations — so the whole harness completes in minutes; the
// cmd/lukewarm binary runs the full-fidelity versions. Key reproduced
// quantities are attached as custom benchmark metrics.

// benchOpt is the reduced option set shared by the benchmarks.
var benchOpt = ExperimentOptions{
	Functions: []string{"Auth-G", "ProdL-G", "Email-P", "Pay-N", "AES-P"},
	Warmup:    1,
	Measure:   2,
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1().NumRows() == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table2().NumRows() != 20 {
			b.Fatal("wrong suite size")
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	var saturated float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(ExperimentOptions{Warmup: 1, Measure: 1})
		if err != nil {
			b.Fatal(err)
		}
		saturated = r.Rows[len(r.Rows)-1].NormCPI["Auth-P"]
	}
	b.ReportMetric(saturated, "saturatedCPI%")
}

func BenchmarkFig2(b *testing.B) {
	var uplift float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Characterize(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		uplift = r.MeanUplift() * 100
		_ = r.Fig2Table()
	}
	b.ReportMetric(uplift, "CPIuplift%")
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Characterize(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		_ = r.Fig3Table()
	}
}

func BenchmarkFig4(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Characterize(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		share = r.Fig4FetchLatencyShare() * 100
		_ = r.Fig4Table()
	}
	b.ReportMetric(share, "fetchLatShare%")
}

func BenchmarkFig5a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Characterize(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		_ = r.Fig5aTable()
	}
}

func BenchmarkFig5b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Characterize(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		_ = r.Fig5bTable()
	}
}

func BenchmarkFig6a(b *testing.B) {
	var meanKB float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Footprints(ExperimentOptions{Functions: benchOpt.Functions}, 8)
		if err != nil {
			b.Fatal(err)
		}
		meanKB = r.MeanFootprintKB()
		_ = r.Fig6aTable()
	}
	b.ReportMetric(meanKB, "footprintKB")
}

func BenchmarkFig6b(b *testing.B) {
	var high float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Footprints(ExperimentOptions{Functions: benchOpt.Functions}, 8)
		if err != nil {
			b.Fatal(err)
		}
		high = float64(r.HighCommonalityCount())
		_ = r.Fig6bTable()
	}
	b.ReportMetric(high, "fns>=0.9")
}

func BenchmarkFig8(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(ExperimentOptions{Functions: benchOpt.Functions, Measure: 1})
		if err != nil {
			b.Fatal(err)
		}
		best = float64(r.BestRegionSize())
		_ = r.Table()
	}
	b.ReportMetric(best, "bestRegionB")
}

func BenchmarkFig9(b *testing.B) {
	var g16 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(ExperimentOptions{Functions: workload.Representatives(), Warmup: 1, Measure: 1})
		if err != nil {
			b.Fatal(err)
		}
		g16 = r.Rows[2].SpeedupPct["GEOMEAN"]
		_ = r.Table()
	}
	b.ReportMetric(g16, "speedup16KB%")
}

func BenchmarkFig10(b *testing.B) {
	var jb, pf float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Performance(benchOpt, SkylakeConfig(), DefaultJukeboxConfig())
		if err != nil {
			b.Fatal(err)
		}
		jb, pf = r.GeomeanSpeedups()
		_ = r.Fig10Table()
	}
	b.ReportMetric(jb, "jukebox%")
	b.ReportMetric(pf, "perfectI$%")
}

func BenchmarkFig11(b *testing.B) {
	var cov float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Performance(benchOpt, SkylakeConfig(), DefaultJukeboxConfig())
		if err != nil {
			b.Fatal(err)
		}
		covered, _, _ := r.Rows[0].Coverage()
		cov = covered * 100
		_ = r.Fig11Table()
	}
	b.ReportMetric(cov, "coverage%")
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Performance(benchOpt, SkylakeConfig(), DefaultJukeboxConfig())
		if err != nil {
			b.Fatal(err)
		}
		_ = r.Fig12Table()
	}
}

func BenchmarkFig13(b *testing.B) {
	var jb, ideal float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(ExperimentOptions{Functions: workload.Representatives(), Warmup: 1, Measure: 1})
		if err != nil {
			b.Fatal(err)
		}
		jb = r.SpeedupPct["JB"]["GEOMEAN"]
		ideal = r.SpeedupPct["PIF-ideal"]["GEOMEAN"]
		_ = r.Table()
	}
	b.ReportMetric(jb, "jukebox%")
	b.ReportMetric(ideal, "pifIdeal%")
}

func BenchmarkTable3(b *testing.B) {
	var bdw float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3(ExperimentOptions{Functions: []string{"Auth-G", "Email-P"}, Warmup: 1, Measure: 1})
		if err != nil {
			b.Fatal(err)
		}
		bdw = r.GeomeanSpeedupPct["Broadwell"]
		_ = r.Table()
	}
	b.ReportMetric(bdw, "broadwell%")
}

func BenchmarkAblationCRRB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.CRRBAblation(ExperimentOptions{Functions: []string{"Auth-G", "Email-P"}, Measure: 1})
		if err != nil {
			b.Fatal(err)
		}
		_ = r.Table()
	}
}

func BenchmarkAblationCompaction(b *testing.B) {
	var virt float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Compaction(ExperimentOptions{Functions: []string{"Auth-G"}, Warmup: 1, Measure: 1})
		if err != nil {
			b.Fatal(err)
		}
		virt = r.Coverage["virtual"] * 100
		_ = r.Table()
	}
	b.ReportMetric(virt, "virtCoverage%")
}

func BenchmarkExtensionSnapshot(b *testing.B) {
	var sp float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Snapshot(ExperimentOptions{Functions: []string{"Auth-G", "ProdL-G"}, Warmup: 1, Measure: 1})
		if err != nil {
			b.Fatal(err)
		}
		sp = r.FirstInvocationSpeedupPct
		_ = r.Table()
	}
	b.ReportMetric(sp, "firstInv%")
}

func BenchmarkExtensionBaselines(b *testing.B) {
	var recap float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Baselines(ExperimentOptions{Functions: []string{"Auth-G", "Email-P"}, Warmup: 1, Measure: 1})
		if err != nil {
			b.Fatal(err)
		}
		recap = r.BandwidthPct["RECAP"]
		_ = r.Table()
	}
	b.ReportMetric(recap, "recapBW%")
}

func BenchmarkExtensionServerSim(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.ServerSim(ExperimentOptions{Warmup: 1, Measure: 1,
			Functions: []string{"Auth-G", "Email-P", "Pay-N", "Geo-G", "Prof-G", "Curr-N", "RecO-P", "ProdL-G"}})
		if err != nil {
			b.Fatal(err)
		}
		gain = r.ThroughputGainPct
		_ = r.Table()
	}
	b.ReportMetric(gain, "throughput%")
}

func BenchmarkExtensionScaling(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Scaling(ExperimentOptions{Warmup: 1, Measure: 1})
		if err != nil {
			b.Fatal(err)
		}
		gain = r.Rows[len(r.Rows)-1].JukeboxGainPct
		_ = r.Table()
	}
	b.ReportMetric(gain, "gain4core%")
}

// BenchmarkExtensionCluster measures the fault-tolerant fleet simulation:
// three nodes behind the retrying/hedging front end with all three fleet
// fault kinds armed.
func BenchmarkExtensionCluster(b *testing.B) {
	ws := make([]Workload, 0, 2)
	for _, name := range []string{"Auth-G", "Email-P"} {
		w, err := FunctionByName(name)
		if err != nil {
			b.Fatal(err)
		}
		ws = append(ws, w)
	}
	tc := DefaultTrafficConfig()
	tc.MeanIATms = 50
	tc.InvocationsPerInstance = 6
	var avail float64
	for i := 0; i < b.N; i++ {
		cfg := FleetConfig{
			Nodes: 3, Workloads: ws, Traffic: tc,
			DeadlineMs: 400, RetryMax: 1, RetryBackoffMs: 2, HedgeDelayMinMs: 0.5,
			EjectAfter: 3, EjectMs: 60,
			Faults:            NewFaultPlan(7, FaultKinds()...),
			InstanceCrashProb: 0.1, DispatchFlakeProb: 0.2,
			NodeCrashMTBFms: 150, NodeDownMs: 40,
		}
		r, err := RunFleet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := AuditFleetResult(&r); err != nil {
			b.Fatal(err)
		}
		avail = r.Availability() * 100
	}
	b.ReportMetric(avail, "avail%")
}

// BenchmarkSimulationThroughput measures raw simulator speed: instructions
// simulated per wall-clock second for one lukewarm invocation.
func BenchmarkSimulationThroughput(b *testing.B) {
	fn, err := FunctionByName("Auth-G")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(ServerConfig{})
	inst := srv.Deploy(fn)
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := srv.RunLukewarm(inst, 1)
		instrs += res.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
