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

// FuzzTrafficConfig holds ServeTraffic to the configuration contract: a
// TrafficConfig that Validate accepts runs to completion without a panic and
// passes AuditTraffic (and AuditPredict when pre-warming is armed); one it
// rejects fails with an error wrapping cfgerr.ErrBadConfig, and ServeTraffic
// refuses it the same way.
//
// server picks the server: bit 0 one or two cores, bit 1 one or two
// functions, bits 2-3 the warm-up mechanisms (none, Jukebox, REAP, both).
// shape sets Poisson, HeavyTail, Diurnal and Bursty from bits 0-3. keep
// picks the keep-alive policy (nil, NoEvict, FixedTimeout(keepMs),
// HybridHistogram with FallbackMs keepMs), placer the placement policy (nil,
// EarliestAvailable, RoundRobin, StickyAffinity, JukeboxAware; the upper
// bits are its parameter), and fc the forecaster (none, histpeak, ewma,
// oracle; the upper bits are histpeak's parameters) that arms Predict with
// lead leadMs.
func FuzzTrafficConfig(f *testing.F) {
	ws := serverless.TinyWorkloads(f, 2)
	f.Add(uint8(0b0111), 4.0, uint8(0b0001), int8(6), 1.0, int8(0), 0.0, false, false,
		uint8(2), 20.0, uint8(3), uint8(2), 0.0, uint64(1))
	f.Add(uint8(0b1111), 0.5, uint8(0b1000), int8(12), 0.0, int8(2), 0.25, true, true,
		uint8(3), 0.0, uint8(4|8), uint8(1|4<<2), 2.0, uint64(7))
	f.Add(uint8(0), 1000.0, uint8(0b0100), int8(3), 250.0, int8(0), 0.0, true, false,
		uint8(0), 0.0, uint8(0), uint8(3), 4.0, uint64(3))
	f.Add(uint8(0b1010), -1.0, uint8(0), int8(0), -5.0, int8(-1), -1.0, false, true,
		uint8(2), -3.0, uint8(1), uint8(2), -1.0, uint64(0))

	f.Fuzz(func(t *testing.T, server uint8, iatMs float64, shape uint8, invocs int8,
		coldMs float64, maxQueue int8, shedMs float64, thrash, syncReplay bool,
		keep uint8, keepMs float64, placer uint8, fc uint8, leadMs float64, seed uint64) {
		cfg := serverless.TrafficConfig{
			MeanIATms:              iatMs,
			Poisson:                shape&1 != 0,
			HeavyTail:              shape&2 != 0,
			Diurnal:                shape&4 != 0,
			Bursty:                 shape&8 != 0,
			InvocationsPerInstance: int(invocs),
			ColdStartMs:            coldMs,
			AmbientThrash:          thrash,
			MaxQueue:               int(maxQueue),
			ShedAfterMs:            shedMs,
			SyncReplay:             syncReplay,
			Seed:                   seed,
		}
		switch keep % 4 {
		case 1:
			cfg.KeepAlive = sched.NoEvict()
		case 2:
			cfg.KeepAlive = sched.FixedTimeout(keepMs)
		case 3:
			cfg.KeepAlive = sched.HybridHistogram(sched.HybridConfig{FallbackMs: keepMs})
		}
		switch arg := int(placer / 5); placer % 5 {
		case 1:
			cfg.Placer = sched.EarliestAvailable()
		case 2:
			cfg.Placer = sched.RoundRobin()
		case 3:
			cfg.Placer = sched.StickyAffinity(arg - 8)
		case 4:
			cfg.Placer = sched.JukeboxAware(float64(arg) / 4)
		}
		var forecaster predict.Forecaster
		switch fc % 4 {
		case 1:
			forecaster = predict.HistogramPeak(int(fc>>2&7)-1, int(fc>>5)-1)
		case 2:
			forecaster = predict.EWMA(leadMs / 8)
		case 3:
			forecaster = predict.Oracle()
		}
		if forecaster != nil {
			cfg.Predict = &predict.Config{Forecaster: forecaster, LeadMs: leadMs}
		}

		scfg := serverless.Config{CPU: cpu.SkylakeConfig(), Cores: 1 + int(server&1)}
		if server&4 != 0 {
			jb := core.DefaultConfig()
			scfg.Jukebox = &jb
		}
		if server&8 != 0 {
			rc := reap.DefaultConfig()
			scfg.Reap = &rc
		}
		srv := serverless.New(scfg)
		for _, w := range ws[:1+int(server>>1&1)] {
			srv.Deploy(w)
		}

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
		// A span near the uint64 cycle clock's range means a float-to-cycle
		// conversion overflowed; Go leaves its result implementation-defined,
		// so the run would differ by GOARCH.
		if span := res.SimulatedMs * scfg.CPU.FreqGHz * 1e6; !(span < 1<<62) {
			t.Fatalf("simulated span %g cycles: the cycle clock overflowed", span)
		}
		if cfg.Predict != nil {
			if err := faults.AuditPredict(res.Prewarm, forecaster.Name()); err != nil {
				t.Fatal(err)
			}
		}
	})
}
