package mem

import (
	"fmt"
	"math/bits"

	"lukewarm/internal/cfgerr"
)

// The cache's per-line state is stored flat, in parallel arrays, so the hot
// lookup path touches as few host cache lines as possible:
//
//   - lines holds one word per way: the line's tag shifted up 8 bits over
//     its flags byte (dirty, prefetched, used, and the fill kind), so a tag
//     check, a hit's flag update and an eviction read one word; invalidTag
//     marks an empty way;
//   - ready (prefetch arrival cycles) is meaningful only for prefetched,
//     not-yet-used lines;
//   - meta holds one 32 B setMeta per set: the set's recency list, its
//     flush epoch and its way signatures, so a lookup and the hit or
//     install after it read one host cache line besides the way's word.
//
// Recency. Each set's LRU order is one uint64, a move-to-front list of
// 4-bit way ids, front at the low nibble. Victim choice is identical to
// stamp-based LRU: stamps only ever encode recency order within a set, and
// the list preserves exactly that order. Caches wider than 16 ways (the
// fully-associative differential oracle) keep per-line stamps instead.
//
// Free ways need no scan and no valid mask: a set's recency order keeps its
// invalid ways behind its valid ones, lowest way id last, so the victim an
// install takes is always the tail — the first invalid way while one
// exists, else the LRU way, exactly the choice a scan for the first invalid
// way followed by an LRU pick makes. The wide stamp path keeps the same
// order by giving every invalid way stamp 0 (valid stamps start at 1), so
// the smallest stamp with the lowest index is that same way. Only
// invalidation (the lazy flush reset and EvictFraction) has to re-establish
// the order.
//
// Flush is O(1): it bumps the cache epoch, and each set lazily resets its
// tags and recency on its next install (lookups treat a stale set as
// empty). Flush-time overprediction accounting comes from running counters
// (liveValid, livePrefUnused) maintained at every fill/use/eviction.
//
// The single-scan contract. Every demand, prefetch and merge path scans a
// set once: lookup returns the set index and the way (or -1), and the
// install that follows a miss reuses the set index instead of scanning
// again. A set index may be handed to install only if nothing touched that
// set between the lookup and the install — no install, flush, eviction or
// invalidation in the same cache — and install requires that the line is
// absent. The Hierarchy's paths satisfy it because each touches only other
// levels (and DRAM) between one level's lookup and its install; fill is
// lookup plus install for callers that cannot promise absence.
// FuzzCacheInstall holds the two routes bit-identical to a reference model.
//
// Every observable behavior — stats, LRU victim choice, eviction order,
// per-line RNG draws in EvictFraction — is bit-identical to the original
// struct-per-line implementation; internal/check's LRU differential oracle
// and the golden-figure harness enforce that.

// invalidTag marks an empty way. No line word collides with it: a tag is
// addr>>LineShift, and simulated physical addresses are far below the
// 2^62 at which a tag shifted over its flags byte would overflow.
const invalidTag = ^uint64(0)

// lineWord packs a tag and its flags byte into a lines entry; wordTag and
// wordFlags take them apart.
func lineWord(tag uint64, f uint8) uint64 { return tag<<8 | uint64(f) }
func wordTag(w uint64) uint64             { return w >> 8 }
func wordFlags(w uint64) uint8            { return uint8(w) }

// Flag bits of the per-line flags byte. lineKindData holds the fill Kind
// (Instr=0, Data=1) in bit 3.
const (
	lineDirty = 1 << iota
	linePrefetched
	lineUsed
	lineKindData
)

// flagsKind extracts the fill kind from a flags byte.
func flagsKind(f uint8) Kind { return Kind(f>>3) & 1 }

// kindFlag is the flags-byte encoding of fill kind k.
func kindFlag(k Kind) uint8 { return uint8(k&1) << 3 }

// maxPackedWays is the widest set the packed recency list covers.
const maxPackedWays = 16

// identityPerm lists way i at position i, for the positions past a
// narrower cache's ways, which never move.
const identityPerm = 0xFEDCBA9876543210

// emptyRecency is the packed recency list of a set whose ways are all
// invalid: positions 0..ways-1 hold ways ways-1..0, so way 0 is the tail
// and the first install takes it.
func emptyRecency(ways int) uint64 {
	l := uint64(identityPerm)
	for p := 0; p < ways; p++ {
		l = l&^(0xF<<(4*p)) | uint64(ways-1-p)<<(4*p)
	}
	return l
}

// setMeta is one set's recency list, flush epoch and way signatures, side
// by side so a lookup and the hit or install after it read one host cache
// line (two sets share a line).
type setMeta struct {
	recency, epoch uint64
	// sig holds one signature byte per way (byte w%8 of word w/8): a hash
	// of the way's tag, so a lookup compares all ways at once and reads a
	// tag only where its signature matches. Stale for invalid ways, which
	// a tag compare rejects.
	sig [maxPackedWays / 8]uint64
}

// bytes01 has 1 in every byte lane.
const bytes01 = 0x0101010101010101

// sigOf hashes a tag to its signature byte. Tags sharing a set share their
// low bits, so the signature takes the product's high byte.
func sigOf(tag uint64) uint64 { return tag * 0x9E3779B97F4A7C15 >> 56 }

// CacheStats aggregates the per-cache counters the experiments read.
type CacheStats struct {
	// DemandAccesses, DemandHits and DemandMisses are indexed by Kind.
	DemandAccesses [numKinds]uint64
	DemandHits     [numKinds]uint64
	DemandMisses   [numKinds]uint64
	// PrefetchFills counts lines installed by a prefetcher, indexed by the
	// traffic kind the prefetcher declared at fill (instruction prefetchers
	// vs. the L1-D next-line prefetcher).
	PrefetchFills [numKinds]uint64
	// PrefetchUsed counts prefetched lines touched by a later demand access
	// (covered misses), by fill kind.
	PrefetchUsed [numKinds]uint64
	// PrefetchLate counts prefetched lines whose first demand use arrived
	// before the prefetch data did (the access stalled for the residue).
	PrefetchLate [numKinds]uint64
	// PrefetchEvictedUnused counts prefetched lines evicted without ever
	// being used (overprediction), by fill kind.
	PrefetchEvictedUnused [numKinds]uint64
	// Evictions counts valid lines displaced by fills.
	Evictions uint64
	// DirtyEvictions counts displaced lines that were dirty.
	DirtyEvictions uint64
}

// DemandMissRate reports misses/accesses for kind k, or 0 with no accesses.
func (s *CacheStats) DemandMissRate(k Kind) float64 {
	if s.DemandAccesses[k] == 0 {
		return 0
	}
	return float64(s.DemandMisses[k]) / float64(s.DemandAccesses[k])
}

// Config describes one cache's geometry and timing.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	HitLatency Cycle
	MSHRs      int
}

// Sets reports the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (LineSize * c.Ways) }

// Validate reports whether the geometry is realizable: positive ways and a
// positive power-of-two set count. Errors wrap cfgerr.ErrBadConfig.
func (c Config) Validate() error {
	if c.Ways <= 0 {
		return cfgerr.New("cache %s: ways must be positive, got %d", c.Name, c.Ways)
	}
	if sets := c.Sets(); sets <= 0 || sets&(sets-1) != 0 {
		return cfgerr.New("cache %s: %d sets is not a positive power of two", c.Name, sets)
	}
	return nil
}

// Cache is a set-associative, LRU, write-back cache. It is a passive array:
// the Hierarchy drives lookups and installs and decides what happens on a
// miss.
type Cache struct {
	cfg     Config
	ways    int
	setMask uint64
	lines   []uint64 // sets*ways, set-major: lineWord(tag, flags) or invalidTag
	ready   []Cycle  // parallel to lines; meaningful while prefetched && !used
	meta    []setMeta
	epoch   uint64 // a set whose meta epoch differs is logically empty
	// packed caches (ways <= maxPackedWays) keep recency lists and way
	// signatures in meta: tailShift locates a list's tail nibble, empty is
	// a fully invalid set's list, sigMask selects the signature lanes of
	// real ways. Wider caches keep lru stamps instead.
	packed    bool
	tailShift uint
	empty     uint64
	sigMask   [maxPackedWays / 8]uint64
	lru       []uint64
	lruTick   uint64
	// liveValid counts valid lines; livePrefUnused counts resident
	// prefetched-never-used lines by fill kind. Both fund O(1) Flush.
	liveValid      int
	livePrefUnused [numKinds]uint64
	Stats          CacheStats
}

// NewCache builds a cache from cfg. It panics if the geometry is invalid —
// callers that take cache geometry from user input should call
// Config.Validate first (the serverless facade does).
func NewCache(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("mem: %v", err))
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:     cfg,
		ways:    cfg.Ways,
		setMask: uint64(sets - 1),
		lines:   make([]uint64, sets*cfg.Ways),
		ready:   make([]Cycle, sets*cfg.Ways),
		meta:    make([]setMeta, sets),
	}
	for i := range c.lines {
		c.lines[i] = invalidTag
	}
	if cfg.Ways <= maxPackedWays {
		c.tailShift = uint(4 * (cfg.Ways - 1))
		c.empty = emptyRecency(cfg.Ways)
		c.packed = true
		for w := 0; w < cfg.Ways; w++ {
			c.sigMask[w/8] |= 0x80 << (8 * (w % 8))
		}
		for i := range c.meta {
			c.meta[i].recency = c.empty
		}
	} else {
		c.lru = make([]uint64, sets*cfg.Ways)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// valid reports whether absolute way index i holds a live line, without
// materializing lazily flushed sets.
func (c *Cache) valid(i int) bool {
	return c.meta[i/c.ways].epoch == c.epoch && c.lines[i] != invalidTag
}

func tagOf(addr uint64) uint64 { return addr >> LineShift }

// lookup returns the set index of addr and the absolute way index holding
// it, or way -1. It never writes: a set not touched since the last Flush is
// simply a miss. The set index may be handed to install under the
// single-scan contract. Packed caches compare the tag's signature against
// every way's at once (a SWAR zero-byte scan, whose borrow can only flag
// extra lanes above a true match) and read a tag only to confirm a
// candidate, so a miss usually reads no tag at all; a tag is resident in at
// most one way, so the first confirmed candidate is the answer.
//lukewarm:hotpath noalloc,noescape the tag compare runs once per cache per simulated memory reference
func (c *Cache) lookup(addr uint64) (int, int) {
	s := int((addr >> LineShift) & c.setMask)
	m := &c.meta[s]
	if m.epoch != c.epoch {
		return s, -1
	}
	tag := tagOf(addr)
	base := s * c.ways
	if !c.packed {
		return s, c.scanWide(base, tag)
	}
	h := sigOf(tag) * bytes01
	for j := range m.sig {
		x := m.sig[j] ^ h
		for cand := (x - bytes01) &^ x & c.sigMask[j]; cand != 0; cand &= cand - 1 {
			if i := base + 8*j + bits.TrailingZeros64(cand)>>3; wordTag(c.lines[i]) == tag {
				return s, i
			}
		}
	}
	return s, -1
}

// scanWide is lookup's tag scan for caches wider than the signature words.
func (c *Cache) scanWide(base int, tag uint64) int {
	t := c.lines[base : base+c.ways]
	for i := range t {
		if wordTag(t[i]) == tag {
			return base + i
		}
	}
	return -1
}

// touch moves way w of set s to the front of the packed recency list. A
// way already in front comes out unchanged, so there is no early return.
// Wide caches record a stamp instead (stamp); callers pick by c.packed, so
// the stamp path stays out of line and touch inlines.
//lukewarm:hotpath noalloc,inline every hit and install moves a way to the front; the SWAR update must inline branch-free
func (c *Cache) touch(s, w int) {
	m := &c.meta[s]
	l := m.recency
	uw := uint64(w)
	// Locate w's nibble with a SWAR zero-scan: x has exactly one zero nibble
	// (the list is a permutation), and the borrow in the subtract can only
	// produce spurious high bits above it, so the lowest set bit of z is
	// the top bit of w's nibble. keep then covers w's nibble and everything
	// in front of it, which shifts back one place as w moves to the front.
	x := l ^ uw*nibbles
	z := (x - nibbles) &^ x & (nibbles << 3)
	keep := (z&-z)<<1 - 1
	m.recency = l&^keep | (l<<4)&keep | uw
}

// nibbles has 1 in every nibble.
const nibbles = 0x1111111111111111

// stamp is touch for caches wider than the packed list: a fresh LRU stamp.
// It stays out of line so the packed path's callers stay small.
//go:noinline
func (c *Cache) stamp(s, w int) {
	c.lruTick++
	c.lru[s*c.ways+w] = c.lruTick
}

// Probe reports whether addr is present, without touching LRU or counters.
func (c *Cache) Probe(addr uint64) bool {
	_, i := c.lookup(addr)
	return i >= 0
}

// hit does a demand hit's bookkeeping on absolute way i of set s at time
// now: recency (touch, or a stamp on wide caches), then use. It returns
// the residual wait for an in-flight prefetched line and whether the hit
// was that line's first use.
//lukewarm:hotpath noalloc,noescape the demand hit path of the outer levels and of standalone caches
func (c *Cache) hit(now Cycle, s, i int, k Kind, write bool) (Cycle, bool) {
	if w := i - s*c.ways; c.packed {
		c.touch(s, w)
	} else {
		c.stamp(s, w)
	}
	f := c.use(i, k, write)
	if unusedPrefetch(f) != 0 {
		return c.firstUse(now, i, f), true
	}
	return 0, false
}

// use counts a demand hit of kind k on absolute way i and sets the line's
// used bit, and its dirty bit for a write. It returns the line's previous
// flags: a prefetched line not used before needs firstUse.
//lukewarm:hotpath noalloc,inline the L1 hit path's bookkeeping; with touch inlined too, an L1 hit costs the lookup call only
func (c *Cache) use(i int, k Kind, write bool) uint8 {
	c.Stats.DemandAccesses[k&1]++
	c.Stats.DemandHits[k&1]++
	var d uint8
	if write {
		d = lineDirty
	}
	f := wordFlags(c.lines[i])
	c.lines[i] |= uint64(d | lineUsed)
	return f
}

// firstUse settles a prefetched line's first demand use: the covered miss
// and, if its data has not arrived, the late one. It returns the residual
// wait.
//lukewarm:hotpath noalloc,noescape every covered miss of every prefetcher lands here once
func (c *Cache) firstUse(now Cycle, i int, f uint8) Cycle {
	fk := flagsKind(f)
	c.Stats.PrefetchUsed[fk]++
	c.livePrefUnused[fk]--
	if r := c.ready[i]; r > now {
		c.Stats.PrefetchLate[fk]++
		return r - now
	}
	return 0
}

// unusedPrefetch is 1 for the flags of a prefetched line not yet used,
// else 0.
func unusedPrefetch(f uint8) uint64 { return uint64(f>>1&^(f>>2)) & 1 }

// miss counts a demand miss of kind k.
//lukewarm:hotpath noalloc,inline,nobce every demand miss at every level counts here
func (c *Cache) miss(k Kind) {
	c.Stats.DemandAccesses[k&1]++
	c.Stats.DemandMisses[k&1]++
}

// victim describes a line displaced by a fill.
type victim struct {
	valid bool
	dirty bool
	addr  uint64
	kind  Kind
}

// Flags bytes of freshly installed lines: a demand fill is used from the
// start, a prefetch fill is not.
func demandFlags(k Kind) uint8   { return lineUsed | kindFlag(k) }
func prefetchFlags(k Kind) uint8 { return linePrefetched | kindFlag(k) }

// install places addr into set s with flags nf, evicting the set's tail way
// (the first invalid way, else the LRU way), and returns the displaced
// line. ready is when a prefetched line's data arrives. Under the
// single-scan contract, s comes from a lookup of addr that missed, and
// nothing has touched the set since.
//lukewarm:hotpath noalloc,noescape every miss and prefetch fill on every level installs here; the victim must stay on the stack
func (c *Cache) install(s int, addr uint64, nf uint8, ready Cycle) victim {
	if c.meta[s].epoch != c.epoch {
		c.resetSet(s)
	}
	var w int
	if c.packed {
		w = int(c.meta[s].recency >> c.tailShift & 0xF)
	} else {
		w = c.stampVictim(s)
	}
	vi := s*c.ways + w
	var v victim
	if old := c.lines[vi]; old != invalidTag {
		// The victim's block address is reconstructed from its tag; the set
		// index is implied by the set being filled.
		f := wordFlags(old)
		vk := flagsKind(f)
		v = victim{valid: true, dirty: f&lineDirty != 0, kind: vk, addr: wordTag(old) << LineShift}
		c.Stats.Evictions++
		c.Stats.DirtyEvictions += uint64(f & lineDirty)
		u := unusedPrefetch(f)
		c.Stats.PrefetchEvictedUnused[vk] += u
		c.livePrefUnused[vk] -= u
	} else {
		c.liveValid++
	}
	tag := tagOf(addr)
	c.lines[vi] = lineWord(tag, nf)
	if nf&linePrefetched != 0 {
		fk := flagsKind(nf)
		c.ready[vi] = ready
		c.Stats.PrefetchFills[fk]++
		c.livePrefUnused[fk]++
	}
	if c.packed {
		m := &c.meta[s]
		sh := 8 * uint(w%8)
		m.sig[w/8] = m.sig[w/8]&^(0xFF<<sh) | sigOf(tag)<<sh
		c.touch(s, w)
	} else {
		c.stamp(s, w)
	}
	return v
}

// resetSet materializes a set untouched since the last Flush: every way
// invalid, in the recency order an empty set keeps.
func (c *Cache) resetSet(s int) {
	c.meta[s].epoch = c.epoch
	base := s * c.ways
	t := c.lines[base : base+c.ways]
	for i := range t {
		t[i] = invalidTag
	}
	if c.packed {
		c.meta[s].recency = c.empty
	} else {
		clear(c.lru[base : base+c.ways])
	}
}

// stampVictim returns the way of set s with the smallest stamp, the lowest
// such way on a tie; invalid ways hold stamp 0.
func (c *Cache) stampVictim(s int) int {
	st := c.lru[s*c.ways : (s+1)*c.ways]
	w := 0
	for i := 1; i < len(st); i++ {
		if st[i] < st[w] {
			w = i
		}
	}
	return w
}

// fill installs addr, evicting the LRU way if needed. prefetched marks
// prefetcher-installed lines; ready is when in-flight data arrives (demand
// fills pass now). A demand fill over a present line (a prefetch raced the
// demand) marks it used without a recency touch; a prefetch fill over a
// present line does nothing.
func (c *Cache) fill(now Cycle, addr uint64, k Kind, prefetched bool, ready Cycle) victim {
	s, i := c.lookup(addr)
	if i < 0 {
		nf := demandFlags(k)
		if prefetched {
			nf = prefetchFlags(k)
		}
		return c.install(s, addr, nf, ready)
	}
	if !prefetched {
		f := wordFlags(c.lines[i])
		if f&(linePrefetched|lineUsed) == linePrefetched {
			c.livePrefUnused[flagsKind(f)]--
		}
		c.lines[i] |= lineUsed
	}
	return victim{}
}

// mergeDirty writes a dirty line evicted from the level above back into c:
// it marks addr dirty if present, else installs it dirty and returns the
// line that install displaced.
//lukewarm:hotpath noalloc,noescape every dirty writeback between levels merges here
func (c *Cache) mergeDirty(addr uint64, k Kind) victim {
	s, i := c.lookup(addr)
	if i >= 0 {
		c.lines[i] |= lineDirty
		return victim{}
	}
	return c.install(s, addr, demandFlags(k)|lineDirty, 0)
}

// DemandAccess performs one standalone demand access: a lookup that fills
// the line on a miss (marking it dirty for writes, as the hierarchy's write
// path does) and reports whether it hit. It drives a single cache outside a
// Hierarchy — the differential oracles in internal/check and
// microbenchmarks use it; the Hierarchy itself sequences lookups and
// installs across levels.
func (c *Cache) DemandAccess(now Cycle, addr uint64, k Kind, write bool) bool {
	s, i := c.lookup(addr)
	if i >= 0 {
		c.hit(now, s, i, k, write)
		return true
	}
	c.miss(k)
	nf := demandFlags(k)
	if write {
		nf |= lineDirty
	}
	c.install(s, addr, nf, now)
	return false
}

// probeWait reports whether addr is resident and, for an in-flight
// prefetched line, the residual wait at time now. Counters and LRU are not
// touched.
func (c *Cache) probeWait(now Cycle, addr uint64) (wait Cycle, present bool) {
	_, i := c.lookup(addr)
	if i < 0 {
		return 0, false
	}
	if f := wordFlags(c.lines[i]); f&(linePrefetched|lineUsed) == linePrefetched {
		if r := c.ready[i]; r > now {
			wait = r - now
		}
	}
	return wait, true
}

// Flush invalidates every line, modeling complete obliteration of the
// cache's contents by interleaved executions. Unused prefetched lines are
// counted as overpredicted. The flush is O(1): the epoch bump makes every
// set lazily reset on its next install, and the overprediction charge comes
// from the running livePrefUnused counters.
func (c *Cache) Flush() {
	for k := range c.livePrefUnused {
		c.Stats.PrefetchEvictedUnused[k] += c.livePrefUnused[k]
		c.livePrefUnused[k] = 0
	}
	c.liveValid = 0
	c.epoch++
}

// EvictFraction invalidates approximately frac of the cache's valid lines,
// chosen by a deterministic PRNG stream, modeling partial thrashing by a
// bounded amount of interleaved foreign execution (Fig. 1's IAT sweep).
func (c *Cache) EvictFraction(frac float64, rng func() uint64) {
	if frac <= 0 {
		return
	}
	if frac >= 1 {
		c.Flush()
		return
	}
	threshold := uint64(frac * float64(1<<32))
	for s := range c.meta {
		if c.meta[s].epoch != c.epoch {
			continue // flushed: no valid lines, no draws
		}
		base := s * c.ways
		evicted := false
		for i := base; i < base+c.ways; i++ {
			if c.lines[i] == invalidTag || rng()&0xFFFFFFFF >= threshold {
				continue
			}
			if f := wordFlags(c.lines[i]); f&(linePrefetched|lineUsed) == linePrefetched {
				fk := flagsKind(f)
				c.Stats.PrefetchEvictedUnused[fk]++
				c.livePrefUnused[fk]--
			}
			c.lines[i] = invalidTag
			c.liveValid--
			evicted = true
			if c.lru != nil {
				c.lru[i] = 0
			}
		}
		if evicted && c.packed {
			c.sinkInvalid(s)
		}
	}
}

// sinkInvalid restores set s's recency order after ways were invalidated:
// the valid ways keep their relative order at the front, the invalid ways
// follow from the highest way id down, so the tail is the lowest invalid
// way.
func (c *Cache) sinkInvalid(s int) {
	l := c.meta[s].recency
	base := s * c.ways
	out := l &^ (uint64(1)<<(4*c.ways) - 1) // positions past ways never move
	p := 0
	for q := 0; q < c.ways; q++ {
		if w := int(l >> (4 * q) & 0xF); c.lines[base+w] != invalidTag {
			out |= uint64(w) << (4 * p)
			p++
		}
	}
	for w := c.ways - 1; w >= 0; w-- {
		if c.lines[base+w] == invalidTag {
			out |= uint64(w) << (4 * p)
			p++
		}
	}
	c.meta[s].recency = out
}

// CountValid reports the number of valid lines (used by tests and the
// thrash model).
func (c *Cache) CountValid() int { return c.liveValid }

// DrainUnusedPrefetches counts still-resident never-used prefetched lines as
// overpredicted and marks them used so repeated calls are idempotent. Call at
// the end of a measurement window.
func (c *Cache) DrainUnusedPrefetches() {
	for i := range c.lines {
		if !c.valid(i) {
			continue
		}
		if f := wordFlags(c.lines[i]); f&(linePrefetched|lineUsed) == linePrefetched {
			fk := flagsKind(f)
			c.Stats.PrefetchEvictedUnused[fk]++
			c.livePrefUnused[fk]--
			c.lines[i] |= lineUsed
		}
	}
}

// ResetStats zeroes the counters without touching cache contents, so warmup
// traffic can be excluded from measurement.
func (c *Cache) ResetStats() { c.Stats = CacheStats{} }

// ResidentBlocks appends the block addresses of all valid lines to dst and
// returns it, in set-major order. Context-restoration schemes (RECAP-style)
// use this to snapshot a cache's footprint at descheduling time.
func (c *Cache) ResidentBlocks(dst []uint64) []uint64 {
	for i := range c.lines {
		if c.valid(i) {
			dst = append(dst, wordTag(c.lines[i])<<LineShift)
		}
	}
	return dst
}
