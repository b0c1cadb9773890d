package lukewarm

import (
	"errors"
	"testing"

	"lukewarm/internal/experiments"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	srv := NewServer(ServerConfig{})
	fn, err := FunctionByName("Auth-G")
	if err != nil {
		t.Fatal(err)
	}
	inst := srv.Deploy(fn)
	warm := srv.RunReference(inst, 2)
	luke := srv.RunLukewarm(inst, 2)
	if luke.CPI() <= warm.CPI() {
		t.Errorf("lukewarm CPI %.3f not above warm %.3f", luke.CPI(), warm.CPI())
	}

	jb := DefaultJukeboxConfig()
	srv2 := NewServer(ServerConfig{Jukebox: &jb})
	inst2 := srv2.Deploy(fn)
	fast := srv2.RunLukewarm(inst2, 3)
	if fast.Cycles >= luke.Cycles {
		t.Errorf("Jukebox did not speed up the lukewarm run")
	}
	if inst2.Jukebox.MetadataFootprintBytes() != 32<<10 {
		t.Errorf("metadata footprint = %d", inst2.Jukebox.MetadataFootprintBytes())
	}
}

func TestFacadeSuite(t *testing.T) {
	if got := len(Suite()); got != 20 {
		t.Errorf("Suite = %d functions", got)
	}
	if got := len(FunctionNames()); got != 20 {
		t.Errorf("FunctionNames = %d", got)
	}
	if _, err := FunctionByName("definitely-not-a-function"); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestFacadeConfigs(t *testing.T) {
	if SkylakeConfig().Hier.L2.SizeBytes <= BroadwellConfig().Hier.L2.SizeBytes {
		t.Error("platform configs inverted")
	}
	if CharacterizationConfig().Hier.LLC.SizeBytes <= BroadwellConfig().Hier.LLC.SizeBytes {
		t.Error("characterization LLC not enlarged")
	}
	if DefaultJukeboxConfig().RegionSizeBytes != 1024 {
		t.Error("default region size not 1KB")
	}
	if !IdealPIFConfig().Persist || DefaultPIFConfig().Persist {
		t.Error("PIF persistence flags wrong")
	}
}

func TestFacadeCustomProgram(t *testing.T) {
	p, err := NewProgram(ProgramConfig{
		Name: "custom", Seed: 9, CodeKB: 64, DynamicInstrs: 40_000,
		CoreFrac: 0.9, OptionalProb: 0.8, InstrPerLine: 16,
		LoadFrac: 0.2, StoreFrac: 0.1, CondFrac: 0.3, CondBias: 0.9,
		DataKB: 64, HotDataKB: 16, HotDataFrac: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{})
	inst := srv.Deploy(Workload{Name: "custom", Program: p})
	res := srv.Invoke(inst)
	if res.Instrs == 0 {
		t.Fatal("custom program ran nothing")
	}
}

func TestFacadePIFAttachment(t *testing.T) {
	srv := NewServer(ServerConfig{})
	pf := NewPIF(IdealPIFConfig(), srv)
	srv.AttachCorePrefetcher(pf)
	fn, _ := FunctionByName("ProdL-G")
	inst := srv.Deploy(fn)
	srv.RunLukewarm(inst, 1)
	if pf.Stats.Appends == 0 {
		t.Error("attached PIF saw no traffic")
	}
}

func TestFacadeTopDownAccessors(t *testing.T) {
	srv := NewServer(ServerConfig{})
	fn, _ := FunctionByName("Fib-G")
	res := srv.RunLukewarm(srv.Deploy(fn), 1)
	total := 0.0
	for _, c := range []TopDownCategory{Retiring, FetchLatency, FetchBandwidth, BadSpeculation, BackendBound} {
		total += res.Stack.CPIOf(c)
	}
	if diff := total - res.CPI(); diff > 0.001 || diff < -0.001 {
		t.Errorf("topdown categories (%.3f) do not sum to CPI (%.3f)", total, res.CPI())
	}
}

// experiment looks a registry entry up by name through the facade.
func experiment(t *testing.T, name string) Experiment {
	t.Helper()
	for _, e := range Experiments() {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no experiment %q", name)
	return Experiment{}
}

func TestFacadeExperimentWrappers(t *testing.T) {
	opt := ExperimentOptions{Functions: []string{"Auth-G"}, Warmup: 1, Measure: 1, Audit: true}
	for name, wantRows := range map[string]int{"table1": 8, "table2": 20, "fig8": 2} {
		out, err := experiment(t, name).Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Tables) != 1 || out.Tables[0].NumRows() != wantRows {
			t.Errorf("%s: %d tables, want one with %d rows", name, len(out.Tables), wantRows)
		}
	}
	perf, err := experiments.Performance(opt, BroadwellConfig(), DefaultJukeboxConfig())
	if err != nil {
		t.Fatal(err)
	}
	if perf.Platform != "Broadwell-like" {
		t.Errorf("Performance platform = %q", perf.Platform)
	}
}

func TestFacadeErrorHygiene(t *testing.T) {
	if _, err := NewServerErr(ServerConfig{Reap: &ReapConfig{}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad server config: err = %v, want ErrBadConfig", err)
	}
	if _, err := NewProgram(ProgramConfig{CodeKB: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad program config: err = %v, want ErrBadConfig", err)
	}
	if _, err := FunctionByName("Nope-X"); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown function: err = %v, want ErrBadConfig", err)
	}
	srv := NewServer(ServerConfig{})
	if _, err := srv.ServeTraffic(TrafficConfig{MeanIATms: -5}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad traffic config: err = %v, want ErrBadConfig", err)
	}
}

func TestFacadeFaultSurface(t *testing.T) {
	// 8 single-node kinds plus the 3 fleet kinds (node crash, instance
	// crash, dispatch flake).
	if n := len(FaultKinds()); n != 11 {
		t.Errorf("fault matrix has %d kinds", n)
	}
	plan := NewFaultPlan(3, FaultKinds()...)
	for _, k := range FaultKinds() {
		if !plan.Armed(k) {
			t.Errorf("kind %v not armed", k)
		}
	}
	srv := NewServer(ServerConfig{})
	fn, err := FunctionByName("Auth-G")
	if err != nil {
		t.Fatal(err)
	}
	res := srv.RunLukewarm(srv.Deploy(fn), 1)
	if err := AuditRun(res); err != nil {
		t.Errorf("clean run fails audit: %v", err)
	}
}

func TestFacadeChaosQuick(t *testing.T) {
	out, err := experiment(t, "chaos").Run(ExperimentOptions{Functions: []string{"Auth-G"}, Seed: 17})
	if err != nil {
		t.Fatalf("%v\n%s", err, out.Tables[0])
	}
	if got := out.Tables[0].NumRows(); got != len(FaultKinds()) {
		t.Fatalf("cells = %d, want %d", got, len(FaultKinds()))
	}
}
