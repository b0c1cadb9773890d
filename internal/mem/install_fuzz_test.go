package mem

import (
	"fmt"
	"testing"
)

// refLine is one line of refCache: the struct-per-line layout the flat
// cache replaced, kept as the reference the single-scan paths answer to.
type refLine struct {
	tag                      uint64
	valid, dirty, pref, used bool
	kind                     Kind
	ready                    Cycle
	stamp                    uint64
}

// refCache is a naive set-associative LRU cache with the demand, prefetch
// and merge semantics of Cache: it scans for a tag on every operation,
// installs into the first invalid way or else the smallest stamp, and
// flushes and thrashes eagerly.
type refCache struct {
	ways  int
	sets  int
	lines []refLine
	tick  uint64
	stats CacheStats
}

func newRefCache(cfg Config) *refCache {
	return &refCache{ways: cfg.Ways, sets: cfg.Sets(), lines: make([]refLine, cfg.Sets()*cfg.Ways)}
}

func (r *refCache) set(addr uint64) []refLine {
	s := int(tagOf(addr)) & (r.sets - 1)
	return r.lines[s*r.ways : (s+1)*r.ways]
}

func (r *refCache) find(addr uint64) *refLine {
	set := r.set(addr)
	for w := range set {
		if set[w].valid && set[w].tag == tagOf(addr) {
			return &set[w]
		}
	}
	return nil
}

func (r *refCache) touch(l *refLine) { r.tick++; l.stamp = r.tick }

func (r *refCache) access(now Cycle, addr uint64, k Kind, write bool) accessOutcome {
	r.stats.DemandAccesses[k]++
	l := r.find(addr)
	if l == nil {
		r.stats.DemandMisses[k]++
		return accessOutcome{}
	}
	r.touch(l)
	out := accessOutcome{hit: true}
	if l.pref && !l.used {
		out.prefetchHit = true
		r.stats.PrefetchUsed[l.kind]++
		if l.ready > now {
			out.extraWait = l.ready - now
			r.stats.PrefetchLate[l.kind]++
		}
	}
	l.used = true
	l.dirty = l.dirty || write
	r.stats.DemandHits[k]++
	return out
}

func (r *refCache) fill(addr uint64, k Kind, prefetched bool, ready Cycle) victim {
	if l := r.find(addr); l != nil {
		if !prefetched {
			l.used = true
		}
		return victim{}
	}
	set := r.set(addr)
	w := -1
	for i := range set {
		if !set[i].valid {
			w = i
			break
		}
	}
	if w < 0 {
		w = 0
		for i := range set {
			if set[i].stamp < set[w].stamp {
				w = i
			}
		}
	}
	l := &set[w]
	var v victim
	if l.valid {
		v = victim{valid: true, dirty: l.dirty, addr: l.tag << LineShift, kind: l.kind}
		r.stats.Evictions++
		if l.dirty {
			r.stats.DirtyEvictions++
		}
		if l.pref && !l.used {
			r.stats.PrefetchEvictedUnused[l.kind]++
		}
	}
	*l = refLine{tag: tagOf(addr), valid: true, kind: k, pref: prefetched, used: !prefetched, stamp: l.stamp}
	if prefetched {
		l.ready = ready
		r.stats.PrefetchFills[k]++
	}
	r.touch(l)
	return v
}

func (r *refCache) markDirty(addr uint64) {
	if l := r.find(addr); l != nil {
		l.dirty = true
	}
}

func (r *refCache) invalidate(l *refLine) {
	if l.pref && !l.used {
		r.stats.PrefetchEvictedUnused[l.kind]++
	}
	l.valid = false
}

func (r *refCache) flush() {
	for i := range r.lines {
		if r.lines[i].valid {
			r.invalidate(&r.lines[i])
		}
	}
}

func (r *refCache) evictFraction(frac float64, rng func() uint64) {
	threshold := uint64(frac * float64(1<<32))
	for i := range r.lines {
		if r.lines[i].valid && rng()&0xFFFFFFFF < threshold {
			r.invalidate(&r.lines[i])
		}
	}
}

func (r *refCache) drain() {
	for i := range r.lines {
		if l := &r.lines[i]; l.valid && l.pref && !l.used {
			r.stats.PrefetchEvictedUnused[l.kind]++
			l.used = true
		}
	}
}

// sameAs reports the first difference between c and the reference: per way
// residency, tag, flags, in-flight ready cycle, every counter and the live
// counters that fund Flush.
func (r *refCache) sameAs(c *Cache) error {
	live, unused := 0, [numKinds]uint64{}
	for i := range r.lines {
		l := &r.lines[i]
		if c.valid(i) != l.valid {
			return fmt.Errorf("way %d: valid %v, reference %v", i, c.valid(i), l.valid)
		}
		if !l.valid {
			continue
		}
		live++
		want := kindFlag(l.kind)
		for _, b := range []struct {
			on  bool
			bit uint8
		}{{l.dirty, lineDirty}, {l.pref, linePrefetched}, {l.used, lineUsed}} {
			if b.on {
				want |= b.bit
			}
		}
		if tag, f := wordTag(c.lines[i]), wordFlags(c.lines[i]); tag != l.tag || f != want {
			return fmt.Errorf("way %d: tag %#x flags %04b, reference %#x %04b", i, tag, f, l.tag, want)
		}
		if l.pref && !l.used {
			unused[l.kind]++
			if c.ready[i] != l.ready {
				return fmt.Errorf("way %d: ready %d, reference %d", i, c.ready[i], l.ready)
			}
		}
	}
	switch {
	case c.Stats != r.stats:
		return fmt.Errorf("stats %+v, reference %+v", c.Stats, r.stats)
	case c.CountValid() != live || c.livePrefUnused != unused:
		return fmt.Errorf("live %d/%v, reference %d/%v", c.CountValid(), c.livePrefUnused, live, unused)
	}
	return nil
}

// installGeometries are the fuzzed shapes: the packed 8- and 16-way lists
// and a 32-way cache on the stamp path, each with few sets so streams of
// a few dozen lines evict.
var installGeometries = []Config{
	{Name: "8way", SizeBytes: 8 * 8 * LineSize, Ways: 8},
	{Name: "16way", SizeBytes: 4 * 16 * LineSize, Ways: 16},
	{Name: "32way", SizeBytes: 2 * 32 * LineSize, Ways: 32},
}

// FuzzCacheInstall drives one op stream three ways on each geometry — the
// single-scan route the Hierarchy uses (lookup, then hit or install into
// the returned set, mergeDirty), the plain route (access, then fill and
// markDirty) on recycled arrays, and refCache — and requires identical ways, flags, victims
// and counters after every op. The stream mixes demand accesses, prefetch
// fills, demand refills over present lines, dirty merges, markDirty,
// Flush, EvictFraction and DrainUnusedPrefetches.
func FuzzCacheInstall(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 9, 0, 1, 1, 2, 2, 1, 40, 0, 1, 0})
	f.Add([]byte{1, 3, 7, 0, 3, 0, 0, 35, 1, 6, 0, 0, 0, 67, 1, 5, 1, 128, 3, 67, 0, 7, 0, 0, 0, 3, 1})
	f.Add([]byte("a demand stream with prefetches, merges, flushes and thrash"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, cfg := range installGeometries {
			if err := runInstallStream(cfg, ops); err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
		}
	})
}

// installPool returns the line addresses a stream draws from: 32 lines in
// a row, then 32 lines of set 0 whose tags share tag 0's signature, so
// signature matches that a tag compare must reject are common.
func installPool(cfg Config) []uint64 {
	pool := make([]uint64, 0, 64)
	for l := uint64(0); l < 32; l++ {
		pool = append(pool, l<<LineShift)
	}
	for l := uint64(cfg.Sets()); len(pool) < 64; l += uint64(cfg.Sets()) {
		if sigOf(l) == sigOf(0) {
			pool = append(pool, l<<LineShift)
		}
	}
	return pool
}

// runInstallStream drives ops through a new cache (a), a cache on arrays
// recycled from one that ran ops first (b) and the reference.
func runInstallStream(cfg Config, ops []byte) error {
	a, ref := NewCache(cfg), newRefCache(cfg)
	b, err := recycledCache(cfg, ops)
	if err != nil {
		return err
	}
	pool := installPool(cfg)
	rngs := [3]uint64{1, 1, 1}
	rng := func(i int) func() uint64 {
		return func() uint64 {
			x := &rngs[i]
			*x ^= *x << 13
			*x ^= *x >> 7
			*x ^= *x << 17
			return *x
		}
	}
	for n := 0; n+3 <= len(ops); n += 3 {
		op, arg, extra := ops[n]%8, ops[n+1], ops[n+2]
		now := Cycle(n)
		addr := pool[int(arg)%len(pool)] | uint64(extra)%LineSize
		k := Kind(extra>>6) & 1
		write := extra&0x20 != 0
		var va, vb, vr victim
		switch op {
		case 0, 1: // demand access, filling on a miss
			want := ref.access(now, addr, k, write)
			if !want.hit {
				vr = ref.fill(addr, k, false, 0)
				if write {
					ref.markDirty(addr)
				}
			}
			s, i := a.lookup(addr)
			if i >= 0 {
				wait, pf := a.hit(now, s, i, k, write)
				if got := (accessOutcome{hit: true, prefetchHit: pf, extraWait: wait}); got != want {
					return fmt.Errorf("op %d: lookup/hit %+v, reference %+v", n/3, got, want)
				}
			} else {
				if want.hit {
					return fmt.Errorf("op %d: lookup missed, reference hit", n/3)
				}
				a.miss(k)
				nf := demandFlags(k)
				if write {
					nf |= lineDirty
				}
				va = a.install(s, addr, nf, 0)
			}
			if got := b.access(now, addr, k, write); got != want {
				return fmt.Errorf("op %d: access %+v, reference %+v", n/3, got, want)
			}
			if !want.hit {
				vb = b.fill(now, addr, k, false, 0)
				if write {
					b.markDirty(addr)
				}
			}
		case 2, 3: // prefetch fill, ready some cycles out
			ready := now + Cycle(extra%32)
			vr = ref.fill(addr, k, true, ready)
			if s, i := a.lookup(addr); i < 0 {
				va = a.install(s, addr, prefetchFlags(k), ready)
			}
			vb = b.fill(now, addr, k, true, ready)
		case 4: // demand fill, possibly over a present line
			vr = ref.fill(addr, k, false, 0)
			va = a.fill(now, addr, k, false, 0)
			vb = b.fill(now, addr, k, false, 0)
		case 5: // dirty merge from the level above
			if ref.find(addr) == nil {
				vr = ref.fill(addr, k, false, 0)
			}
			ref.markDirty(addr)
			va = a.mergeDirty(addr, k)
			if !b.Probe(addr) {
				vb = b.fill(now, addr, k, false, 0)
			}
			b.markDirty(addr)
		case 6:
			ref.markDirty(addr)
			a.markDirty(addr)
			b.markDirty(addr)
		case 7:
			switch extra % 4 {
			case 0:
				ref.flush()
				a.Flush()
				b.Flush()
			case 1:
				ref.drain()
				a.DrainUnusedPrefetches()
				b.DrainUnusedPrefetches()
			default:
				frac := float64(arg%8+1) / 10
				ref.evictFraction(frac, rng(0))
				a.EvictFraction(frac, rng(1))
				b.EvictFraction(frac, rng(2))
			}
		}
		if va != vr || vb != vr {
			return fmt.Errorf("op %d (%d): victims %+v / %+v, reference %+v", n/3, op, va, vb, vr)
		}
		for _, c := range []*Cache{a, b} {
			if err := ref.sameAs(c); err != nil {
				return fmt.Errorf("op %d (%d): %v", n/3, op, err)
			}
		}
	}
	return nil
}
