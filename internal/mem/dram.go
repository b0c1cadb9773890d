package mem

import "lukewarm/internal/cfgerr"

// DRAMConfig describes the memory device timing. The defaults model the
// paper's DDR4-2400 part (tRCD = tRP = tCL = 14 ns) behind a 2.6 GHz core:
// an idle access costs on the order of 150-200 core cycles beyond the LLC
// lookup, and the channel sustains one 64 B line every ~9 core cycles.
type DRAMConfig struct {
	// AccessLatency is the idle-channel latency of one line fill, in core
	// cycles, measured from request issue to data return.
	AccessLatency Cycle
	// LinePeriod is the channel occupancy of one 64 B transfer in core
	// cycles; back-to-back requests are spaced at least this far apart.
	LinePeriod Cycle
}

// DefaultDRAMConfig returns the DDR4-2400 model used by both simulated
// platforms.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{AccessLatency: 180, LinePeriod: 9}
}

// Validate reports whether the timing is realizable: no negative latencies
// or periods (zero fields select defaults in NewDRAM). Errors wrap
// cfgerr.ErrBadConfig.
func (c DRAMConfig) Validate() error {
	if c.AccessLatency < 0 || c.LinePeriod < 0 {
		return cfgerr.New("dram: negative timing (latency %d, period %d)",
			c.AccessLatency, c.LinePeriod)
	}
	return nil
}

// DRAM models main memory: a fixed access latency plus a single-channel
// bandwidth constraint, with per-class byte accounting for the bandwidth
// study (Fig. 12).
//
// The controller prioritizes demand reads over prefetch and metadata
// traffic: a demand access queues only behind other demand accesses, while
// prefetch-class accesses queue behind everything. Without this, a replay
// burst at invocation start would head-of-line-block the very demand misses
// it is trying to hide.
//
// Queue occupancy is tracked as *relative backlog* (cycles of pending
// transfers) that drains as time advances, rather than as an absolute
// free-at timestamp. The two are equivalent for a single monotonic clock,
// but the backlog form also behaves sensibly when multiple cores with
// skewed clocks share the controller (logically concurrent executions are
// simulated one after another; see the multi-core server).
type DRAM struct {
	cfg             DRAMConfig
	lastNow         Cycle
	demandBacklog   Cycle // pending demand transfers, in cycles
	prefetchBacklog Cycle // pending transfers as seen by prefetch traffic
	bytes           [numTrafficClasses]uint64
	accesses        [numTrafficClasses]uint64

	// Disturbance state (fault injection): while distLeft > 0, every access
	// pays distExtra additional latency and occupies the channel for
	// LinePeriod*distMult cycles, modeling a latency spike plus bandwidth
	// throttling from co-located interference.
	distExtra Cycle
	distMult  int
	distLeft  uint64
}

// NewDRAM builds a DRAM model. Zero-valued config fields fall back to the
// defaults.
func NewDRAM(cfg DRAMConfig) *DRAM {
	def := DefaultDRAMConfig()
	if cfg.AccessLatency == 0 {
		cfg.AccessLatency = def.AccessLatency
	}
	if cfg.LinePeriod == 0 {
		cfg.LinePeriod = def.LinePeriod
	}
	return &DRAM{cfg: cfg}
}

// decay drains backlog for the time elapsed since the last access. A
// backward timestamp jump (the simulator switching to a core whose clock is
// behind) drains nothing but re-bases the reference time, so the new core's
// own forward progress drains the queue normally from then on.
func (d *DRAM) decay(now Cycle) {
	if now <= d.lastNow {
		d.lastNow = now
		return
	}
	elapsed := now - d.lastNow
	d.lastNow = now
	if d.demandBacklog > elapsed {
		d.demandBacklog -= elapsed
	} else {
		d.demandBacklog = 0
	}
	if d.prefetchBacklog > elapsed {
		d.prefetchBacklog -= elapsed
	} else {
		d.prefetchBacklog = 0
	}
}

// Access performs one line-sized transfer of class cls at time now and
// returns its completion latency, including any queueing behind earlier
// transfers still occupying the channel (subject to demand priority).
func (d *DRAM) Access(now Cycle, cls TrafficClass) Cycle {
	d.decay(now)
	period, extra := d.cfg.LinePeriod, Cycle(0)
	if d.distLeft > 0 {
		period *= Cycle(d.distMult)
		extra = d.distExtra
		d.distLeft--
	}
	var wait Cycle
	if cls == TrafficDemand || cls == TrafficWriteback {
		wait = d.demandBacklog
		d.demandBacklog += period
		// Prefetch traffic yields to demand occupancy.
		if d.prefetchBacklog < d.demandBacklog {
			d.prefetchBacklog = d.demandBacklog
		}
	} else {
		wait = d.prefetchBacklog
		d.prefetchBacklog += period
	}
	d.bytes[cls] += LineSize
	d.accesses[cls]++
	return wait + d.cfg.AccessLatency + extra
}

// AccessBytes performs a transfer of n bytes (rounded up to whole lines) of
// class cls, returning the latency of the first line; used for metadata
// streams that are consumed incrementally.
func (d *DRAM) AccessBytes(now Cycle, cls TrafficClass, n int) Cycle {
	if n <= 0 {
		return 0
	}
	lines := (n + LineSize - 1) / LineSize
	lat := d.Access(now, cls)
	for i := 1; i < lines; i++ {
		d.Access(now, cls)
	}
	return lat
}

// Bytes reports the bytes transferred for class cls.
func (d *DRAM) Bytes(cls TrafficClass) uint64 { return d.bytes[cls] }

// Accesses reports the number of line transfers for class cls.
func (d *DRAM) Accesses(cls TrafficClass) uint64 { return d.accesses[cls] }

// TotalBytes reports bytes transferred across all classes.
func (d *DRAM) TotalBytes() uint64 {
	var t uint64
	for _, b := range d.bytes {
		t += b
	}
	return t
}

// ResetStats zeroes the byte and access counters (channel state persists).
func (d *DRAM) ResetStats() {
	d.bytes = [numTrafficClasses]uint64{}
	d.accesses = [numTrafficClasses]uint64{}
}

// Config returns the DRAM configuration in effect.
func (d *DRAM) Config() DRAMConfig { return d.cfg }

// InjectDisturbance arms a deterministic interference episode: the next n
// accesses each pay extra additional cycles of latency and occupy the
// channel for mult× the configured line period. mult < 1 is treated as 1.
// Used by the fault-injection harness to model latency spikes and bandwidth
// throttling from co-located tenants.
func (d *DRAM) InjectDisturbance(extra Cycle, mult int, n uint64) {
	if mult < 1 {
		mult = 1
	}
	d.distExtra = extra
	d.distMult = mult
	d.distLeft = n
}
