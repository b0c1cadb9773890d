package mem

import (
	"testing"
	"testing/quick"
)

func testCache(sizeKB, ways int) *Cache {
	return NewCache(Config{Name: "t", SizeBytes: sizeKB << 10, Ways: ways, HitLatency: 4})
}

// The demand-lookup and dirty-bit helpers below drive a single cache the
// way the hierarchy's paths do, for the tests.

// accessOutcome describes a demand lookup.
type accessOutcome struct {
	hit         bool
	prefetchHit bool  // hit on a prefetched, not-yet-used line
	extraWait   Cycle // residual wait for an in-flight prefetch
}

// access performs a demand lookup for addr at time now, updating LRU and
// demand counters; it does not fill on a miss.
func (c *Cache) access(now Cycle, addr uint64, k Kind, write bool) accessOutcome {
	s, i := c.lookup(addr)
	if i < 0 {
		c.miss(k)
		return accessOutcome{}
	}
	wait, pf := c.hit(now, s, i, k, write)
	return accessOutcome{hit: true, prefetchHit: pf, extraWait: wait}
}

// markDirty sets the dirty bit on addr's line if present.
func (c *Cache) markDirty(addr uint64) {
	if _, i := c.lookup(addr); i >= 0 {
		c.lines[i] |= lineDirty
	}
}

func TestCacheGeometry(t *testing.T) {
	c := testCache(32, 8)
	if got := c.Config().Sets(); got != 64 {
		t.Errorf("Sets = %d, want 64", got)
	}
}

func TestCachePanicsOnBadGeometry(t *testing.T) {
	cases := []Config{
		{Name: "zero-ways", SizeBytes: 32 << 10, Ways: 0},
		{Name: "non-pow2", SizeBytes: 3 * 64 * 4, Ways: 4}, // 3 sets
		{Name: "too-small", SizeBytes: 0, Ways: 4},
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", cfg.Name)
				}
			}()
			NewCache(cfg)
		}()
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := testCache(32, 8)
	if out := c.access(0, 0x1000, Instr, false); out.hit {
		t.Fatal("cold access hit")
	}
	c.fill(0, 0x1000, Instr, false, 0)
	if out := c.access(1, 0x1000, Instr, false); !out.hit {
		t.Fatal("filled line missed")
	}
	// Same block, different byte offset: still a hit.
	if out := c.access(2, 0x103F, Instr, false); !out.hit {
		t.Fatal("same-block access missed")
	}
	// Next block: miss.
	if out := c.access(3, 0x1040, Instr, false); out.hit {
		t.Fatal("next block hit without fill")
	}
	s := c.Stats
	if s.DemandAccesses[Instr] != 4 || s.DemandHits[Instr] != 2 || s.DemandMisses[Instr] != 2 {
		t.Errorf("counters = %+v", s)
	}
}

func TestDemandAccessFillsOnMiss(t *testing.T) {
	c := testCache(32, 8)
	if c.DemandAccess(0, 0x1000, Data, false) {
		t.Fatal("cold DemandAccess hit")
	}
	if !c.DemandAccess(1, 0x1000, Data, false) {
		t.Fatal("DemandAccess did not fill on miss")
	}
	s := c.Stats
	if s.DemandAccesses[Data] != 2 || s.DemandHits[Data] != 1 || s.DemandMisses[Data] != 1 {
		t.Errorf("counters = %+v", s)
	}
	// A missing write both fills and dirties the line.
	one := NewCache(Config{Name: "t", SizeBytes: 1 * 64 * 1, Ways: 1})
	one.DemandAccess(0, 0x0, Data, true)
	if v := one.fill(1, 0x40, Data, false, 1); !v.valid || !v.dirty {
		t.Fatalf("write-miss victim not dirty: %+v", v)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache: fill three blocks mapping to the same set; the least
	// recently used one must be the victim.
	c := NewCache(Config{Name: "t", SizeBytes: 2 * 64 * 4, Ways: 2}) // 4 sets, 2 ways
	setStride := uint64(4 * 64)                                      // same set every 4 blocks
	a, b, d := uint64(0), setStride, 2*setStride
	c.fill(0, a, Instr, false, 0)
	c.fill(1, b, Instr, false, 0)
	c.access(2, a, Instr, false) // a is now MRU
	v := c.fill(3, d, Instr, false, 0)
	if !v.valid || v.addr != b {
		t.Fatalf("victim = %+v, want addr %#x", v, b)
	}
	if !c.Probe(a) || c.Probe(b) || !c.Probe(d) {
		t.Errorf("post-evict contents wrong: a=%v b=%v d=%v", c.Probe(a), c.Probe(b), c.Probe(d))
	}
	if c.Stats.Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats.Evictions)
	}
}

func TestCacheDirtyVictim(t *testing.T) {
	c := NewCache(Config{Name: "t", SizeBytes: 1 * 64 * 1, Ways: 1}) // 1 set, 1 way
	c.fill(0, 0x0, Data, false, 0)
	c.access(1, 0x0, Data, true) // store marks dirty
	v := c.fill(2, 0x40, Data, false, 0)
	// 0x40 maps to the same single set.
	if !v.valid || !v.dirty {
		t.Fatalf("dirty victim not reported: %+v", v)
	}
	if c.Stats.DirtyEvictions != 1 {
		t.Errorf("DirtyEvictions = %d", c.Stats.DirtyEvictions)
	}
}

func TestMarkDirty(t *testing.T) {
	c := testCache(32, 8)
	c.fill(0, 0x2000, Data, false, 0)
	c.markDirty(0x2000)
	// Evict it by filling conflicting blocks.
	set := uint64(64 * 64) // stride that maps to the same set (64 sets)
	var dirtySeen bool
	for i := uint64(1); i <= 8; i++ {
		if v := c.fill(Cycle(i), 0x2000+i*set, Data, false, 0); v.valid && v.dirty {
			dirtySeen = true
		}
	}
	if !dirtySeen {
		t.Error("dirty bit set by markDirty was not observed on eviction")
	}
	// markDirty on an absent line is a no-op.
	c.markDirty(0xDEAD000)
}

func TestPrefetchAccounting(t *testing.T) {
	c := testCache(32, 8)
	c.fill(0, 0x1000, Instr, true, 100) // prefetched, ready at cycle 100
	if c.Stats.PrefetchFills[Instr] != 1 {
		t.Fatalf("PrefetchFills = %d", c.Stats.PrefetchFills[Instr])
	}
	// Demand use before ready: counted used and late, pays the residue.
	out := c.access(40, 0x1000, Instr, false)
	if !out.hit || !out.prefetchHit {
		t.Fatalf("prefetch hit not flagged: %+v", out)
	}
	if out.extraWait != 60 {
		t.Errorf("extraWait = %d, want 60", out.extraWait)
	}
	if c.Stats.PrefetchUsed[Instr] != 1 || c.Stats.PrefetchLate[Instr] != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
	// Second access: no longer a prefetch first-use.
	out = c.access(200, 0x1000, Instr, false)
	if out.prefetchHit || out.extraWait != 0 {
		t.Errorf("second access misflagged: %+v", out)
	}
	if c.Stats.PrefetchUsed[Instr] != 1 {
		t.Errorf("PrefetchUsed double counted: %d", c.Stats.PrefetchUsed[Instr])
	}
}

func TestPrefetchTimelyNoWait(t *testing.T) {
	c := testCache(32, 8)
	c.fill(0, 0x40, Instr, true, 10)
	out := c.access(50, 0x40, Instr, false)
	if out.extraWait != 0 {
		t.Errorf("timely prefetch should not wait: %+v", out)
	}
	if c.Stats.PrefetchLate[Instr] != 0 {
		t.Errorf("PrefetchLate = %d", c.Stats.PrefetchLate[Instr])
	}
}

func TestPrefetchOverpredictionOnEviction(t *testing.T) {
	c := NewCache(Config{Name: "t", SizeBytes: 1 * 64 * 1, Ways: 1})
	c.fill(0, 0x0, Instr, true, 0)
	c.fill(1, 0x40, Instr, false, 0) // evicts the unused prefetch
	if c.Stats.PrefetchEvictedUnused[Instr] != 1 {
		t.Errorf("PrefetchEvictedUnused = %d", c.Stats.PrefetchEvictedUnused[Instr])
	}
}

func TestFlushCountsUnusedPrefetches(t *testing.T) {
	c := testCache(32, 8)
	c.fill(0, 0x0, Instr, true, 0)
	c.fill(0, 0x40, Instr, true, 0)
	c.access(1, 0x40, Instr, false)
	c.Flush()
	if c.Stats.PrefetchEvictedUnused[Instr] != 1 {
		t.Errorf("PrefetchEvictedUnused = %d, want 1", c.Stats.PrefetchEvictedUnused[Instr])
	}
	if c.CountValid() != 0 {
		t.Errorf("lines valid after flush: %d", c.CountValid())
	}
}

func TestDrainUnusedPrefetchesIdempotent(t *testing.T) {
	c := testCache(32, 8)
	c.fill(0, 0x0, Instr, true, 0)
	c.DrainUnusedPrefetches()
	c.DrainUnusedPrefetches()
	if c.Stats.PrefetchEvictedUnused[Instr] != 1 {
		t.Errorf("PrefetchEvictedUnused = %d, want 1", c.Stats.PrefetchEvictedUnused[Instr])
	}
}

func TestEvictFraction(t *testing.T) {
	c := testCache(32, 8)
	for i := uint64(0); i < 512; i++ {
		c.fill(Cycle(i), i*64, Data, false, 0)
	}
	if got := c.CountValid(); got != 512 {
		t.Fatalf("valid = %d, want 512", got)
	}
	var state uint64 = 0x9E3779B97F4A7C15
	rng := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	c.EvictFraction(0.5, rng)
	got := c.CountValid()
	if got < 180 || got > 330 {
		t.Errorf("after 50%% evict, valid = %d, want ~256", got)
	}
	c.EvictFraction(1.0, rng)
	if c.CountValid() != 0 {
		t.Errorf("full evict left %d lines", c.CountValid())
	}
	c.EvictFraction(0, rng) // no-op on empty cache
}

func TestFillIdempotentWhenPresent(t *testing.T) {
	c := testCache(32, 8)
	c.fill(0, 0x1000, Instr, false, 0)
	v := c.fill(1, 0x1000, Instr, false, 0)
	if v.valid {
		t.Errorf("refill of present line evicted %+v", v)
	}
	// A demand fill over an unused prefetched line marks it used.
	c.fill(2, 0x2000, Instr, true, 50)
	c.fill(3, 0x2000, Instr, false, 0)
	c.Flush()
	if c.Stats.PrefetchEvictedUnused[Instr] != 0 {
		t.Errorf("demand refill did not mark prefetch used")
	}
}

func TestResetStats(t *testing.T) {
	c := testCache(32, 8)
	c.access(0, 0x0, Instr, false)
	c.ResetStats()
	if c.Stats.DemandAccesses[Instr] != 0 {
		t.Errorf("stats not reset: %+v", c.Stats)
	}
}

func TestDemandMissRate(t *testing.T) {
	var s CacheStats
	if s.DemandMissRate(Instr) != 0 {
		t.Error("empty miss rate != 0")
	}
	s.DemandAccesses[Data] = 10
	s.DemandMisses[Data] = 3
	if got := s.DemandMissRate(Data); got != 0.3 {
		t.Errorf("miss rate = %v", got)
	}
}

// Property: a cache never holds more valid lines than its capacity, and a
// fill always makes the filled block resident.
func TestCacheCapacityProperty(t *testing.T) {
	c := NewCache(Config{Name: "t", SizeBytes: 4 << 10, Ways: 4}) // 16 sets * 4 ways = 64 lines
	f := func(addrs []uint32) bool {
		for i, a := range addrs {
			addr := uint64(a) << LineShift
			c.fill(Cycle(i), addr, Data, false, 0)
			if !c.Probe(addr) {
				return false
			}
			if c.CountValid() > 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: hits + misses == accesses for any access pattern.
func TestCacheCounterConservationProperty(t *testing.T) {
	f := func(addrs []uint16, fills []bool) bool {
		c := NewCache(Config{Name: "t", SizeBytes: 2 << 10, Ways: 2})
		for i, a := range addrs {
			addr := uint64(a) << LineShift
			out := c.access(Cycle(i), addr, Data, false)
			if !out.hit && i < len(fills) && fills[i] {
				c.fill(Cycle(i), addr, Data, false, 0)
			}
		}
		s := c.Stats
		return s.DemandAccesses[Data] == s.DemandHits[Data]+s.DemandMisses[Data]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
