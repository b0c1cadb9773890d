package cluster

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"lukewarm/internal/cfgerr"
	"lukewarm/internal/core"
	"lukewarm/internal/faults"
	"lukewarm/internal/predict"
	"lukewarm/internal/reap"
	"lukewarm/internal/sched"
	"lukewarm/internal/serverless"
	"lukewarm/internal/workload"
)

// testWorkloads resolves a small cross-language subset.
func testWorkloads(t *testing.T, names ...string) []workload.Workload {
	t.Helper()
	var ws []workload.Workload
	for _, n := range names {
		w, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// smallTraffic keeps simulated spans short for tests.
func smallTraffic() serverless.TrafficConfig {
	cfg := serverless.DefaultTrafficConfig()
	cfg.InvocationsPerInstance = 3
	cfg.MeanIATms = 50
	return cfg
}

// faultyConfig is the chaos configuration the determinism and conservation
// tests share: all three fleet fault kinds plus the full resilience stack.
func faultyConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	tc := smallTraffic()
	tc.InvocationsPerInstance = 6
	return Config{
		Nodes:     3,
		Workloads: testWorkloads(t, "Auth-G", "Email-P"),
		Traffic:   tc,

		DeadlineMs:      400,
		RetryMax:        1,
		RetryBackoffMs:  2,
		HedgeDelayMinMs: 0.5,
		EjectAfter:      3,
		EjectMs:         60,
		ShedLowAtMs:     5,
		RecordOnlyAtMs:  10,
		RejectAtMs:      20,
		LowPriority:     []string{"Email-P"},

		Faults:            faults.NewPlan(seed, faults.NodeCrash, faults.InstanceCrash, faults.DispatchFlake),
		InstanceCrashProb: 0.15,
		DispatchFlakeProb: 0.25,
		NodeCrashMTBFms:   120,
		NodeDownMs:        40,
	}
}

func TestOneNodeReproducesServeTraffic(t *testing.T) {
	ws := testWorkloads(t, "Auth-G", "Email-P")
	ref := serverless.New(serverless.Config{})
	for _, w := range ws {
		ref.Deploy(w)
	}
	want, err := ref.ServeTraffic(smallTraffic())
	if err != nil {
		t.Fatal(err)
	}

	res, err := Run(Config{Nodes: 1, Workloads: ws, Traffic: smallTraffic()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerNode) != 1 {
		t.Fatalf("PerNode has %d entries, want 1", len(res.PerNode))
	}
	if !reflect.DeepEqual(res.PerNode[0], want) {
		t.Errorf("1-node cluster diverged from ServeTraffic:\n got %+v\nwant %+v", res.PerNode[0], want)
	}
	if res.Served != want.Served || res.Offered != want.Offered {
		t.Errorf("fleet counters %d/%d != ServeTraffic %d/%d", res.Served, res.Offered, want.Served, want.Offered)
	}
	if res.Availability() != 1 {
		t.Errorf("fault-free availability = %v, want 1", res.Availability())
	}
	if err := Audit(&res); err != nil {
		t.Errorf("audit: %v", err)
	}
}

func TestChaosRunConservesAndRepeats(t *testing.T) {
	first, err := Run(faultyConfig(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := Audit(&first); err != nil {
		t.Errorf("audit: %v", err)
	}
	if first.Injections == 0 {
		t.Error("chaos config fired no injections")
	}
	if first.NodeCrashes == 0 {
		t.Error("no node crashes at MTBF far below the simulated span")
	}
	if first.Availability() >= 1 {
		t.Error("chaos run lost nothing; faults are not biting")
	}
	again, err := Run(faultyConfig(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("same seed produced different fleet results")
	}
	other, err := Run(faultyConfig(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first, other) {
		t.Error("different fault seeds produced identical results")
	}
}

func TestAvailabilityMonotoneInFailureRate(t *testing.T) {
	// Keyed Bernoulli draws give common random numbers across probability
	// levels: the struck set at a lower rate is a subset of the set at any
	// higher rate, so with resilience off, availability can only fall.
	avail := func(prob float64) float64 {
		cfg := Config{
			Nodes:             2,
			Workloads:         testWorkloads(t, "Auth-G", "Email-P"),
			Traffic:           smallTraffic(),
			Faults:            faults.NewPlan(11, faults.InstanceCrash, faults.DispatchFlake),
			InstanceCrashProb: prob,
			DispatchFlakeProb: prob,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := Audit(&res); err != nil {
			t.Fatalf("audit at prob %g: %v", prob, err)
		}
		return res.Availability()
	}
	prev := 2.0
	for _, p := range []float64{0, 0.05, 0.15, 0.35, 0.7, 1} {
		a := avail(p)
		if a > prev {
			t.Errorf("availability rose from %.4f to %.4f as failure rate rose to %g", prev, a, p)
		}
		prev = a
	}
	if avail(0) != 1 {
		t.Error("zero failure rate should serve everything")
	}
	if avail(1) != 0 {
		t.Error("certain failure with no retries should serve nothing")
	}
}

func TestNodeCrashForcesColdRestarts(t *testing.T) {
	cfg := Config{
		Nodes:           2,
		Workloads:       testWorkloads(t, "Auth-G"),
		Traffic:         smallTraffic(),
		RetryMax:        3,
		RetryBackoffMs:  1,
		Faults:          faults.NewPlan(3, faults.NodeCrash),
		NodeCrashMTBFms: 60,
		NodeDownMs:      30,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Audit(&res); err != nil {
		t.Errorf("audit: %v", err)
	}
	if res.NodeCrashes == 0 {
		t.Fatal("no node crashes fired")
	}
	cold := 0
	for i := range res.PerNode {
		cold += res.PerNode[i].ColdStarts
	}
	if cold == 0 {
		t.Error("node crashes destroyed warm state but nothing cold-started")
	}
}

func TestBrownoutLadderEngages(t *testing.T) {
	tc := smallTraffic()
	tc.MeanIATms = 0.2 // saturating load: arrivals far faster than service
	tc.InvocationsPerInstance = 12
	cfg := Config{
		Nodes:          1,
		Workloads:      testWorkloads(t, "Auth-G", "Email-P"),
		Traffic:        tc,
		ShedLowAtMs:    1,
		RecordOnlyAtMs: 4,
		RejectAtMs:     12,
		LowPriority:    []string{"Email-P"},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Audit(&res); err != nil {
		t.Errorf("audit: %v", err)
	}
	if res.TierShifts == 0 {
		t.Error("saturating load never moved the brownout ladder")
	}
	if res.Shed == 0 {
		t.Error("degraded tiers shed nothing under saturation")
	}
	degraded := res.TimeInTierMs[1] + res.TimeInTierMs[2] + res.TimeInTierMs[3]
	if degraded <= 0 {
		t.Error("no simulated time attributed to degraded tiers")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	ws := testWorkloads(t, "Auth-G")
	base := func() Config {
		return Config{Nodes: 1, Workloads: ws, Traffic: smallTraffic()}
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no nodes", func(c *Config) { c.Nodes = 0 }},
		{"no workloads", func(c *Config) { c.Workloads = nil }},
		{"node valves on", func(c *Config) { c.Traffic.MaxQueue = 4 }},
		{"retry no backoff", func(c *Config) { c.RetryMax = 2 }},
		{"eject no window", func(c *Config) { c.EjectAfter = 2 }},
		{"ladder not monotone", func(c *Config) { c.ShedLowAtMs = 10; c.RejectAtMs = 5 }},
		{"prob out of range", func(c *Config) { c.InstanceCrashProb = 1.5 }},
		{"probs without plan", func(c *Config) { c.DispatchFlakeProb = 0.1 }},
		{"mtbf no down time", func(c *Config) { c.Faults = faults.NewPlan(1, faults.NodeCrash); c.NodeCrashMTBFms = 10 }},
		// NaN passed every sign check and silently disabled the field (or,
		// as a fault probability, fired on every dispatch); an infinite or
		// huge duration overflows the cycle clock.
		{"NaN deadline", func(c *Config) { c.DeadlineMs = math.NaN() }},
		{"infinite hedge delay", func(c *Config) { c.HedgeDelayMinMs = math.Inf(1) }},
		{"NaN eject window", func(c *Config) { c.EjectAfter = 2; c.EjectMs = math.NaN() }},
		{"NaN brownout rung", func(c *Config) { c.ShedLowAtMs = math.NaN() }},
		{"NaN crash prob", func(c *Config) {
			c.Faults = faults.NewPlan(1, faults.InstanceCrash)
			c.InstanceCrashProb = math.NaN()
		}},
		{"infinite mtbf", func(c *Config) {
			c.Faults = faults.NewPlan(1, faults.NodeCrash)
			c.NodeCrashMTBFms, c.NodeDownMs = math.Inf(1), 10
		}},
		{"huge down time", func(c *Config) {
			c.Faults = faults.NewPlan(1, faults.NodeCrash)
			c.NodeCrashMTBFms, c.NodeDownMs = 50, 1e300
		}},
		// 2^99 ms of backoff: with node crashes armed the fleet simulated
		// every crash in it and never finished.
		{"retry storm", func(c *Config) { c.RetryMax, c.RetryBackoffMs = 100, 1 }},
		{"two node placers", func(c *Config) {
			c.Traffic.Placer = sched.RoundRobin()
			c.NodePlacer = sched.EarliestAvailable
		}},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mutate(&cfg)
		if _, err := Run(cfg); !errors.Is(err, cfgerr.ErrBadConfig) {
			t.Errorf("%s: error = %v, want ErrBadConfig", tc.name, err)
		}
	}
}

// predictTraffic arms smallTraffic with an oracle forecaster for the
// fleet-budget tests.
func predictTraffic() serverless.TrafficConfig {
	tc := smallTraffic()
	tc.InvocationsPerInstance = 8
	tc.Predict = &predict.Config{Forecaster: predict.NewForecaster("oracle"), LeadMs: 4}
	return tc
}

// prewarmNode deploys both warm-up mechanisms on every node.
func prewarmNode() serverless.Config {
	jb := core.DefaultConfig()
	rc := reap.DefaultConfig()
	return serverless.Config{Jukebox: &jb, Reap: &rc}
}

// TestFleetPrewarmBudgetLimitsDoublePrewarm checks the fleet-level
// allowance: with hedging enabled the same function is judged on two nodes
// around the same arrival, and the budget's refractory window must stop the
// second node from pre-warming (and charging) what the first already did.
// Every node's sim receives the same Traffic.Predict, so the two nodes share
// one Budget: an uncapped fleet schedules freely, and a capped one records
// denials and stays within its total fleet-wide.
func TestFleetPrewarmBudgetLimitsDoublePrewarm(t *testing.T) {
	base := func() Config {
		return Config{
			Nodes:           2,
			Workloads:       testWorkloads(t, "Auth-G", "Email-P"),
			Node:            prewarmNode(),
			Traffic:         predictTraffic(),
			HedgeDelayMinMs: 0.5,
		}
	}

	free, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}
	unlimited := free.PrewarmLedger()
	if unlimited.Scheduled == 0 {
		t.Fatalf("uncapped fleet scheduled no pre-warms: %+v", unlimited)
	}

	cfg := base()
	total := unlimited.Scheduled / 2
	cfg.Traffic.Predict.Budget = predict.NewBudget(total, 1)
	capped, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := capped.PrewarmLedger()
	if l.Scheduled > total {
		t.Errorf("budget %d exceeded fleet-wide: %d scheduled", total, l.Scheduled)
	}
	if l.BudgetDenied == 0 {
		t.Errorf("capped fleet recorded no budget denials: %+v", l)
	}
	if err := Audit(&capped); err != nil {
		t.Errorf("audit: %v", err)
	}
}
