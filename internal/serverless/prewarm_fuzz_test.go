package serverless_test

import (
	"errors"
	"testing"

	"lukewarm/internal/cfgerr"
	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/faults"
	"lukewarm/internal/predict"
	"lukewarm/internal/reap"
	"lukewarm/internal/sched"
	"lukewarm/internal/serverless"
)

// serveChecked holds one traffic run to the configuration contract: if srv
// or cfg is rejected, the error wraps cfgerr.ErrBadConfig; otherwise the run
// finishes and passes AuditTraffic, AuditPredict when pre-warming is armed,
// and AuditReap for every instance with a REAP recorder.
func serveChecked(t *testing.T, srv *serverless.Server, cfg serverless.TrafficConfig) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		if !errors.Is(err, cfgerr.ErrBadConfig) {
			t.Fatalf("Validate error %v does not wrap ErrBadConfig", err)
		}
		if _, err := srv.ServeTraffic(cfg); !errors.Is(err, cfgerr.ErrBadConfig) {
			t.Fatalf("ServeTraffic accepted a config Validate rejects: err = %v", err)
		}
		return
	}
	res, err := srv.ServeTraffic(cfg)
	if err != nil {
		t.Fatalf("ServeTraffic rejected a validated config: %v", err)
	}
	if err := faults.AuditTraffic(res); err != nil {
		t.Fatal(err)
	}
	if cfg.Predict != nil {
		if err := faults.AuditPredict(res.Prewarm, cfg.Predict.Forecaster.Name()); err != nil {
			t.Fatal(err)
		}
	}
	for _, inst := range srv.Instances() {
		if inst.Reap != nil {
			if err := faults.AuditReap(inst.Reap.Stats); err != nil {
				t.Fatalf("%s: %v", inst.Workload.Name, err)
			}
		}
	}
}

// prewarmTraffic is the bursty, evicting traffic both fuzz targets serve:
// a 2 ms keep-alive against a 3 ms mean gap leaves most arrivals to a
// pre-warm or a cold start.
func prewarmTraffic(seed uint64) serverless.TrafficConfig {
	return serverless.TrafficConfig{
		MeanIATms: 3, Bursty: true, InvocationsPerInstance: 8,
		KeepAlive: sched.FixedTimeout(2), ColdStartMs: 0.5, Seed: seed,
	}
}

// FuzzPrewarmConfig holds ServeTraffic to the configuration contract over
// the pre-warm space: the forecaster and its parameters, LeadMs, MechFor
// and the shared Budget. fc picks the forecaster (histpeak, ewma, oracle;
// the upper bits are histpeak's parameters), mech the mechanism map (nil,
// or auto, Jukebox or REAP for every function, or Jukebox and REAP
// alternating), and server bit 0 one or two functions, bits 1-2 the
// deployed mechanisms (none, Jukebox, REAP, both). A total and
// refractoryMs arm a Budget unless noBudget is set.
func FuzzPrewarmConfig(f *testing.F) {
	ws := serverless.TinyWorkloads(f, 2)
	f.Add(uint8(0b111), uint8(3), 4.0, uint8(0), false, int16(0), 0.0, uint64(1))
	f.Add(uint8(0b011), uint8(1|2<<2|3<<5), 2.0, uint8(2), false, int16(3), 5.0, uint64(2))
	f.Add(uint8(0b101), uint8(2), 8.0, uint8(4), true, int16(0), 0.0, uint64(3))
	f.Add(uint8(0b110), uint8(3), 0.0, uint8(3), false, int16(-1), 0.0, uint64(4))

	f.Fuzz(func(t *testing.T, server, fc uint8, leadMs float64, mech uint8,
		noBudget bool, total int16, refractoryMs float64, seed uint64) {
		var forecaster predict.Forecaster
		switch fc % 3 {
		case 0:
			forecaster = predict.HistogramPeak(int(fc>>2&7)-1, int(fc>>5)-1)
		case 1:
			forecaster = predict.EWMA(leadMs / 8)
		default:
			forecaster = predict.Oracle()
		}
		pc := &predict.Config{Forecaster: forecaster, LeadMs: leadMs}
		switch m := predict.Mech(mech % 3); mech % 5 {
		case 1, 2, 3:
			pc.MechFor = func(string) predict.Mech { return m }
		case 4:
			pc.MechFor = func(fn string) predict.Mech {
				if fn == ws[0].Name {
					return predict.MechJukebox
				}
				return predict.MechReap
			}
		}
		if !noBudget {
			pc.Budget = predict.NewBudget(int(total), refractoryMs)
		}
		cfg := prewarmTraffic(seed)
		cfg.Predict = pc

		scfg := serverless.Config{CPU: cpu.SkylakeConfig()}
		if server&2 != 0 {
			jb := core.DefaultConfig()
			scfg.Jukebox = &jb
		}
		if server&4 != 0 {
			rc := reap.DefaultConfig()
			scfg.Reap = &rc
		}
		srv := serverless.New(scfg)
		defer srv.Release()
		for _, w := range ws[:1+int(server&1)] {
			srv.Deploy(w)
		}
		serveChecked(t, srv, cfg)
	})
}

// FuzzReapConfig holds a REAP-enabled traffic run to the configuration
// contract over reap.Config: a MaxPages and EntryBytes that the server
// accepts must run clean under a pre-warming oracle and pass every ledger
// audit; ones it rejects must fail with an error wrapping ErrBadConfig,
// exactly when reap.Config.Validate rejects them. withJukebox deploys
// Jukebox beside REAP; two deploys a second function.
func FuzzReapConfig(f *testing.F) {
	ws := serverless.TinyWorkloads(f, 2)
	f.Add(int32(8192), int8(8), false, false, uint64(1))
	f.Add(int32(3), int8(64), true, true, uint64(2))
	f.Add(int32(1), int8(1), false, true, uint64(3))
	f.Add(int32(0), int8(8), false, false, uint64(4))
	f.Add(int32(16), int8(65), true, false, uint64(5))

	f.Fuzz(func(t *testing.T, maxPages int32, entryBytes int8, withJukebox, two bool, seed uint64) {
		rc := reap.Config{MaxPages: int(maxPages), EntryBytes: int(entryBytes)}
		scfg := serverless.Config{CPU: cpu.SkylakeConfig(), Reap: &rc}
		if withJukebox {
			jb := core.DefaultConfig()
			scfg.Jukebox = &jb
		}
		srv, err := serverless.NewErr(scfg)
		if verr := rc.Validate(); (err != nil) != (verr != nil) {
			t.Fatalf("NewErr error %v disagrees with reap.Config.Validate error %v", err, verr)
		}
		if err != nil {
			if !errors.Is(err, cfgerr.ErrBadConfig) {
				t.Fatalf("NewErr error %v does not wrap ErrBadConfig", err)
			}
			return
		}
		defer srv.Release()
		n := 1
		if two {
			n = 2
		}
		for _, w := range ws[:n] {
			srv.Deploy(w)
		}
		cfg := prewarmTraffic(seed)
		cfg.Predict = &predict.Config{Forecaster: predict.Oracle(), MechFor: func(string) predict.Mech { return predict.MechReap }}
		serveChecked(t, srv, cfg)
	})
}
