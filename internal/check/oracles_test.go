package check

import (
	"strings"
	"testing"

	"lukewarm/internal/mem"
)

// TestReferenceLRUBasics pins the reference model itself to hand-computed
// sequences, so the oracle cannot drift into agreeing with a shared bug.
func TestReferenceLRUBasics(t *testing.T) {
	c := newRefLRU(1, 2) // fully associative, 2 entries
	steps := []struct {
		key uint64
		hit bool
	}{
		{1, false}, {2, false}, {1, true}, // 1 touched: now MRU
		{3, false}, // evicts 2 (LRU), not 1
		{1, true},
		{2, false},
	}
	for i, s := range steps {
		if got := c.access(s.key); got != s.hit {
			t.Fatalf("step %d key %d: hit=%v, want %v", i, s.key, got, s.hit)
		}
	}
	if c.resident() != 2 {
		t.Fatalf("resident = %d, want 2", c.resident())
	}
}

// TestReferenceFIFOBasics pins the FIFO reference: insertion order evicts,
// re-access does not refresh.
func TestReferenceFIFOBasics(t *testing.T) {
	f := &refFIFO{cap: 2}
	steps := []struct {
		key uint64
		hit bool
	}{
		{1, false}, {2, false}, {1, true},
		{3, false}, // evicts 1: FIFO ignores the re-access above
		{1, false},
	}
	for i, s := range steps {
		if got := f.accessed(s.key); got != s.hit {
			t.Fatalf("step %d key %d: hit=%v, want %v", i, s.key, got, s.hit)
		}
	}
}

// TestOracles runs every differential-oracle check as a subtest.
func TestOracles(t *testing.T) {
	runChecks(t, oracleChecks(), func(n string) string { return strings.TrimPrefix(n, "oracle/") })
}

// TestOracleCatchesPlantedBug makes sure a differential check actually
// fires: a cache whose geometry differs from the reference's must be caught
// within a short stream.
func TestOracleCatchesPlantedBug(t *testing.T) {
	// The DUT has 8 sets x 4 ways; drive the comparison helper with a
	// reference built for 4 sets x 8 ways by lying about the config. The
	// easiest way to lie is to compare two mem.Caches of different geometry
	// through the same stream and require divergence.
	a := mem.NewCache(mem.Config{Name: "a", SizeBytes: 2 << 10, Ways: 4, HitLatency: 1, MSHRs: 8})
	b := mem.NewCache(mem.Config{Name: "b", SizeBytes: 2 << 10, Ways: 8, HitLatency: 1, MSHRs: 8})
	// Six blocks all mapping to one set: a 4-way LRU thrashes on the cycle,
	// an 8-way holds all six.
	stream := make([]access, 64)
	for i := range stream {
		stream[i] = access{addr: uint64(i%6) * 4096}
	}
	diverged := false
	for i, ac := range stream {
		ha := a.DemandAccess(mem.Cycle(i), ac.addr, mem.Data, false)
		hb := b.DemandAccess(mem.Cycle(i), ac.addr, mem.Data, false)
		if ha != hb {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("caches of different geometry agreed on a conflict-heavy stream; the differential comparison has no power")
	}
}
