package mem

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// recycledCache runs dirty through a cache of cfg, releases it and returns
// the cache NewCache builds next, which must reuse those arrays.
func recycledCache(cfg Config, dirty []byte) (*Cache, error) {
	old := NewCache(cfg)
	for n := 0; n+3 <= len(dirty); n += 3 {
		addr := uint64(dirty[n+1])<<LineShift | uint64(dirty[n])<<(LineShift+8)
		switch k := Kind(dirty[n+2]>>6) & 1; dirty[n] % 4 {
		case 0:
			old.DemandAccess(Cycle(n), addr, k, dirty[n+2]&1 != 0)
		case 1:
			old.fill(Cycle(n), addr, k, true, Cycle(n+int(dirty[n+2])))
		case 2:
			old.mergeDirty(addr, k)
		case 3:
			if dirty[n+2]%8 == 0 {
				old.Flush()
			}
		}
	}
	lines := &old.lines[0]
	old.Release()
	c := NewCache(cfg)
	if &c.lines[0] != lines {
		return nil, fmt.Errorf("%s: NewCache did not reuse the released arrays", cfg.Name)
	}
	return c, nil
}

// TestRecycledCacheMatchesNew drives long random op streams through a new
// cache, a recycled one and the reference on every fuzzed geometry (the
// 32-way one keeps LRU stamps), after the recycled arrays held valid,
// dirty, prefetched and stamped lines.
func TestRecycledCacheMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for round := 0; round < 20; round++ {
		ops := make([]byte, 3*600)
		rng.Read(ops)
		for _, cfg := range installGeometries {
			if err := runInstallStream(cfg, ops); err != nil {
				t.Fatalf("round %d, %s: %v", round, cfg.Name, err)
			}
		}
	}
}

// TestReleasedCachePanics checks that a released cache cannot be used: its
// accesses panic rather than touch arrays a later cache owns.
func TestReleasedCachePanics(t *testing.T) {
	for name, use := range map[string]func(c *Cache){
		"DemandAccess": func(c *Cache) { c.DemandAccess(0, 0x40, Data, false) },
		"Probe":        func(c *Cache) { c.Probe(0x40) },
		"install":      func(c *Cache) { c.fill(0, 0x40, Instr, true, 9) },
	} {
		c := testCache(32, 8)
		c.DemandAccess(0, 0x40, Data, true)
		c.Release()
		if c.Stats.DemandAccesses[Data] != 1 {
			t.Errorf("%s: counters not readable after Release: %+v", name, c.Stats)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released cache did not panic", name)
				}
			}()
			use(c)
		}()
		NewCache(c.Config()) // take the arrays back so the free list stays empty
	}
}

// TestReleaseOnce checks that a second Release adds nothing, that a
// hierarchy built around a shared LLC leaves it to its builder, and that
// the free list stays within its budget.
func TestReleaseOnce(t *testing.T) {
	drain := func() {
		freeCaches.mu.Lock()
		freeCaches.items, freeCaches.bytes = nil, 0
		freeCaches.mu.Unlock()
	}
	drain()
	defer drain()
	c := testCache(32, 8)
	c.Release()
	c.Release()
	// 512 ways of one lines and one ready word each, 64 sets of 32 B meta.
	if n, b := Retained(); n != 1 || b != 512*16+64*32 {
		t.Fatalf("after a double Release: %d caches, %d bytes retained; want 1 cache of 10240 bytes", n, b)
	}
	drain()

	cfg := SkylakeHierarchy()
	llc, dram := NewCache(cfg.LLC), NewDRAM(cfg.DRAM)
	h0, h1 := NewSharedHierarchy(cfg, llc, dram), NewSharedHierarchy(cfg, llc, dram)
	h0.Release()
	h1.Release()
	if n, _ := Retained(); n != 6 || llc.lines == nil {
		t.Fatalf("two shared hierarchies released %d caches (LLC released: %v); want their 6 private levels only", n, llc.lines == nil)
	}
	llc.Release()
	h0.Release()
	if n, _ := Retained(); n != 7 {
		t.Fatalf("%d caches retained after the LLC's release; want 7", n)
	}

	for i := 0; i < 8; i++ {
		NewHierarchy(cfg).Release()
	}
	if _, b := Retained(); b > cacheBudget {
		t.Fatalf("free list retains %d bytes, over its %d budget", b, cacheBudget)
	}
}

// TestFreeListConcurrent builds, uses and releases caches of two geometries
// from several goroutines at once, as parallel sweep cells do; run under
// -race it checks that the free list hands each array to one owner.
func TestFreeListConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := testCache(4<<(g%2), 4)
				for a := uint64(0); a < 64; a++ {
					c.DemandAccess(Cycle(a), a<<LineShift, Data, a%3 == 0)
				}
				if c.CountValid() != 64 {
					t.Errorf("goroutine %d: %d valid lines after 64 distinct fills, want 64", g, c.CountValid())
				}
				c.Release()
			}
		}(g)
	}
	wg.Wait()
}
