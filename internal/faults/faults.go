// Package faults is a deterministic, seeded fault-injection harness for the
// simulation stack. It perturbs the simulated system at well-defined seams —
// Jukebox metadata in DRAM, page migration mid-replay, instance eviction
// mid-record, DRAM interference, trace streams, traffic overload — and the
// companion auditor (audit.go) checks that results still satisfy their
// conservation invariants afterwards.
//
// Everything is driven by the library's own xorshift streams, never by
// wall-clock or global randomness: the same seed injects the same faults at
// the same points, so fault runs are as reproducible as clean ones.
package faults

import (
	"math"

	"lukewarm/internal/core"
	"lukewarm/internal/mem"
	"lukewarm/internal/program"
	"lukewarm/internal/serverless"
	"lukewarm/internal/vm"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

// The fault matrix. Each kind targets one seam of the stack.
const (
	// MetadataCorrupt flips bits in the sealed Jukebox replay metadata.
	MetadataCorrupt Kind = iota
	// MetadataTruncate discards the tail of the replay metadata.
	MetadataTruncate
	// MetadataZero zeroes the replay metadata wholesale.
	MetadataZero
	// ReplayCompaction migrates every page of the instance's address space
	// in the middle of a metadata replay.
	ReplayCompaction
	// RecordEviction evicts the instance (address space and metadata
	// reclaimed) partway through recording an invocation.
	RecordEviction
	// DRAMSpike injects a latency spike plus bandwidth throttling into the
	// memory controller.
	DRAMSpike
	// TraceCorrupt flips bytes in a serialized trace stream.
	TraceCorrupt
	// TrafficBurst turns an arrival process into a saturating burst.
	TrafficBurst
	// NodeCrash takes a whole simulated node down: every resident instance's
	// warm state and Jukebox metadata is lost, in-flight work dies, and the
	// node stays dark for a recovery window (cluster fleet simulations).
	NodeCrash
	// InstanceCrash kills one instance mid-invocation: the cycles are spent,
	// the response is lost, and the instance's next dispatch is cold.
	InstanceCrash
	// DispatchFlake is a transient front-end dispatch failure: the request
	// never reaches the node and is eligible for retry.
	DispatchFlake

	numKinds
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case MetadataCorrupt:
		return "metadata-corrupt"
	case MetadataTruncate:
		return "metadata-truncate"
	case MetadataZero:
		return "metadata-zero"
	case ReplayCompaction:
		return "replay-compaction"
	case RecordEviction:
		return "record-eviction"
	case DRAMSpike:
		return "dram-spike"
	case TraceCorrupt:
		return "trace-corrupt"
	case TrafficBurst:
		return "traffic-burst"
	case NodeCrash:
		return "node-crash"
	case InstanceCrash:
		return "instance-crash"
	case DispatchFlake:
		return "dispatch-flake"
	default:
		return "unknown-fault"
	}
}

// Kinds lists every fault kind in matrix order.
func Kinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// Plan is one seeded fault campaign: a set of armed fault kinds plus the
// RNG stream that determinizes where each injection lands. A Plan is applied
// manually at the seams (CorruptMetadata between invocations, DisturbDRAM
// before a run, ...); the Injections counters record what actually fired.
type Plan struct {
	rng   *program.RNG
	seed  uint64
	armed [numKinds]bool
	// Injections counts fired injections per kind.
	Injections [numKinds]uint64
}

// NewPlan builds a plan with the given kinds armed, seeded from the
// library's xorshift stream family (never wall-clock).
func NewPlan(seed uint64, kinds ...Kind) *Plan {
	p := &Plan{rng: program.NewRNG(program.Mix(0xFA017, seed)), seed: seed}
	for _, k := range kinds {
		if k < numKinds {
			p.armed[k] = true
		}
	}
	return p
}

// Armed reports whether kind k is armed.
func (p *Plan) Armed(k Kind) bool { return k < numKinds && p.armed[k] }

// TotalInjections sums the fired-injection counters.
func (p *Plan) TotalInjections() uint64 {
	var t uint64
	for _, n := range p.Injections {
		t += n
	}
	return t
}

// CorruptMetadata applies the armed metadata faults to jb's replay buffer —
// the in-DRAM state the next invocation will prefetch from. Corruption goes
// through the buffer's mutators, which deliberately leave the seal stale, so
// a correctly degrading Jukebox detects it at InvocationStart and falls back
// to record-only.
func (p *Plan) CorruptMetadata(jb *core.Jukebox) {
	buf := jb.ReplayBuffer()
	if buf.Len() == 0 {
		return
	}
	if p.armed[MetadataCorrupt] {
		flips := 1 + int(p.rng.Uint64()%4)
		for i := 0; i < flips; i++ {
			buf.CorruptFlipBit(int(p.rng.Uint64()%uint64(buf.Len())), int(p.rng.Uint64()%3), int(p.rng.Uint64()%64))
		}
		p.Injections[MetadataCorrupt]++
	}
	if p.armed[MetadataTruncate] {
		buf.CorruptTruncate(buf.Len() / 2)
		p.Injections[MetadataTruncate]++
	}
	if p.armed[MetadataZero] {
		buf.CorruptZero()
		p.Injections[MetadataZero]++
	}
}

// ArmReplayCompaction hooks jb so that, partway through the next metadata
// replay, the OS migrates every page of as (vm.Compact). Because Jukebox
// records virtual addresses and translates through the MMU per entry, the
// replay must survive this: prefetches issued before the migration land in
// stale frames (wasted but harmless), later entries translate to the new
// frames. The hook disarms itself after firing once.
func (p *Plan) ArmReplayCompaction(jb *core.Jukebox, as *vm.AddressSpace) {
	if !p.armed[ReplayCompaction] {
		return
	}
	fired := false
	jb.ReplayHook = func(entry int) {
		if fired {
			return
		}
		// Fire at a deterministic midpoint entry so part of the replay sees
		// pre-migration frames and part post-migration.
		if target := jb.ReplayBuffer().Len() / 2; entry >= target {
			as.Compact()
			p.Injections[ReplayCompaction]++
			fired = true
		}
	}
}

// ArmMidRecordEviction hooks the instance's Jukebox so that once the
// recording of the current invocation reaches a seeded entry count, the OS
// evicts the instance: address space reclaimed, metadata dropped. The next
// invocation faults everything back in and records from scratch. Fires once.
func (p *Plan) ArmMidRecordEviction(inst *serverless.Instance) {
	if !p.armed[RecordEviction] || inst.Jukebox == nil {
		return
	}
	target := 4 + int(p.rng.Uint64()%8)
	fired := false
	jb := inst.Jukebox
	jb.RecordHook = func(entries int) {
		if fired || entries < target {
			return
		}
		fired = true
		p.Injections[RecordEviction]++
		// Drop metadata only: the address space swap is done by the caller
		// between invocations (swapping page tables under a running core is
		// not something even a hostile OS does).
		jb.Abandon()
	}
}

// DisturbDRAM arms a seeded interference episode on the memory controller:
// 100-300 extra cycles of latency and 2-4x channel occupancy for the next
// 2000-4000 accesses.
func (p *Plan) DisturbDRAM(d *mem.DRAM) {
	if !p.armed[DRAMSpike] {
		return
	}
	extra := mem.Cycle(100 + p.rng.Uint64()%201)
	mult := 2 + int(p.rng.Uint64()%3)
	n := 2000 + p.rng.Uint64()%2001
	d.InjectDisturbance(extra, mult, n)
	p.Injections[DRAMSpike]++
}

// CorruptTrace returns a copy of a serialized trace stream with 1-4 bytes
// flipped after the 4-byte header (flipping the magic is the boring failure;
// the decoder's typed-error paths live past it). Streams too short to have a
// body are returned unchanged.
func (p *Plan) CorruptTrace(data []byte) []byte {
	out := append([]byte(nil), data...)
	if !p.armed[TraceCorrupt] || len(out) <= 5 {
		return out
	}
	flips := 1 + int(p.rng.Uint64()%4)
	for i := 0; i < flips; i++ {
		idx := 4 + int(p.rng.Uint64()%uint64(len(out)-4))
		out[idx] ^= byte(1 << (p.rng.Uint64() % 8))
	}
	p.Injections[TraceCorrupt]++
	return out
}

// AttemptFails decides, by a keyed Bernoulli draw, whether fault kind k
// strikes the attempt identified by key, with probability prob. The draw is
// a pure function of (plan seed, kind, key) — never of call order or of prob
// itself — which gives the campaign the common-random-numbers property: the
// set of struck attempts at probability p is a subset of the set at any
// p' > p. Availability therefore degrades monotonically as failure rates
// rise, which the cluster chaos tests assert. Counts an injection when it
// fires. Unarmed kinds and non-positive probabilities never fire.
func (p *Plan) AttemptFails(k Kind, key uint64, prob float64) bool {
	if k >= numKinds || !p.armed[k] || prob <= 0 {
		return false
	}
	u := program.NewRNG(program.Mix(program.Mix(p.seed, 0x51AB+uint64(k)), key)).Float64()
	if u >= prob {
		return false
	}
	p.Injections[k]++
	return true
}

// NodeCrashGapMs draws the gap to a node's next crash from an exponential
// distribution with mean mtbfMs, clamped to at least 1 ms. Draws come from
// the plan's own stream in call order, so a fixed call sequence (node
// initialization order, then crash-event order) is fully determined by the
// seed. Returns 0 — never crash — when NodeCrash is unarmed or mtbfMs is
// not positive.
func (p *Plan) NodeCrashGapMs(mtbfMs float64) float64 {
	if !p.armed[NodeCrash] || mtbfMs <= 0 {
		return 0
	}
	// float64(...) rounds the draw, so arm64 cannot fuse its scaling into
	// the subtraction (make fmagate).
	g := -math.Log(1-float64(p.rng.Float64())) * mtbfMs
	if g < 1 {
		g = 1
	}
	return g
}

// RecordInjection counts one fired injection of kind k for injections whose
// firing decision lives outside the plan (node-crash events scheduled from
// NodeCrashGapMs draws).
func (p *Plan) RecordInjection(k Kind) {
	if k < numKinds {
		p.Injections[k]++
	}
}

// BurstTraffic transforms an arrival process into a saturating burst:
// inter-arrival times collapse to 1% of the configured mean (at least 10 µs)
// and, so the overload degrades gracefully, deadline shedding is switched on
// if the caller left both valves off. The deadline valve is the one that
// works at any instance count (the arrival heap holds at most one pending
// arrival per instance, so a queue bound above the instance count never
// binds).
func (p *Plan) BurstTraffic(cfg serverless.TrafficConfig) serverless.TrafficConfig {
	if !p.armed[TrafficBurst] {
		return cfg
	}
	cfg.MeanIATms /= 100
	if cfg.MeanIATms < 0.01 {
		cfg.MeanIATms = 0.01
	}
	cfg.HeavyTail = true
	//lukewarm:floateq 0 is the disabled-valve config sentinel, an exact configured value, not arithmetic
	if cfg.MaxQueue == 0 && cfg.ShedAfterMs == 0 {
		cfg.ShedAfterMs = 1.0
	}
	p.Injections[TrafficBurst]++
	return cfg
}
