// Package vm models the virtual-memory subsystem: per-instance address
// spaces backed by a global physical frame allocator, instruction and data
// TLBs, a hardware page-table walker with a small walker cache, and page
// migration (memory compaction).
//
// Jukebox deliberately records *virtual* addresses so that its metadata
// survives OS page migration (paper Sec. 3.2/3.3); the Compact operation here
// exists to demonstrate exactly that property against a physical-address
// strawman.
package vm

import (
	"fmt"

	"lukewarm/internal/cfgerr"
)

// PageSize is the virtual-memory page size in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PageOf returns the virtual page number containing addr.
func PageOf(addr uint64) uint64 { return addr >> PageShift }

// FrameAllocator hands out physical page frames. A single allocator is
// shared by all address spaces on a server so that distinct instances
// occupy distinct physical memory (and therefore contend in the shared LLC).
type FrameAllocator struct {
	next uint64
}

// NewFrameAllocator creates an allocator whose first frame starts at
// baseFrame (frames, not bytes).
func NewFrameAllocator(baseFrame uint64) *FrameAllocator {
	return &FrameAllocator{next: baseFrame}
}

// Alloc returns the physical base address of one fresh frame.
func (f *FrameAllocator) Alloc() uint64 {
	frame := f.next
	f.next++
	return frame << PageShift
}

// AllocContiguous returns the physical base address of n physically
// contiguous frames, as the OS does for Jukebox's metadata buffers
// (Sec. 3.4.1). It panics for n <= 0.
func (f *FrameAllocator) AllocContiguous(n int) uint64 {
	if n <= 0 {
		panic(fmt.Sprintf("vm: AllocContiguous(%d)", n))
	}
	base := f.next
	f.next += uint64(n)
	return base << PageShift
}

// FramesAllocated reports how many frames have been handed out relative to
// the allocator's base.
func (f *FrameAllocator) FramesAllocated(baseFrame uint64) uint64 { return f.next - baseFrame }

// Chunk geometry of the flat page table: each chunk covers chunkPages
// contiguous virtual pages (2 MB of VA), so the sparse gigabyte-wide gaps
// between the code/heap/kernel regions cost nothing while lookups within a
// region are a single indexed load.
const (
	chunkShift = 9
	chunkPages = 1 << chunkShift
	chunkMask  = chunkPages - 1
)

// asChunk is one 2 MB-aligned window of the page table. frames[i] holds the
// physical frame base address of page (base+i) with framePresent set in its
// low bit (frame bases are page-aligned, so the bit is free); 0 means
// unmapped.
type asChunk struct {
	base   uint64 // first vpage covered
	frames [chunkPages]uint64
}

// framePresent marks a populated frame slot.
const framePresent = 1

// AddressSpace is one process's page table: a demand-populated flat frame
// table over 2 MB chunks, kept sorted by base virtual page. The previous
// map-backed representation survives as the differential reference model in
// internal/check.
type AddressSpace struct {
	alloc  *FrameAllocator
	chunks []*asChunk // sorted by base
	// memo holds the two chunks touched last, most recent first.
	// Instruction and data translations alternate between the code chunk
	// and a heap chunk, which a one-entry memo would miss on every switch.
	memo   [2]*asChunk
	mapped int
	// pages caches the sorted mapped-vpage slice Pages returns; nil when a
	// new mapping or a Compact invalidated it.
	pages []uint64
	// Migrations counts pages moved by Compact, for reporting.
	Migrations uint64
}

// NewAddressSpace creates an empty address space drawing frames from alloc.
func NewAddressSpace(alloc *FrameAllocator) *AddressSpace {
	return &AddressSpace{alloc: alloc}
}

// chunkFor returns the chunk containing vp, creating it if grow is set,
// nil otherwise.
func (as *AddressSpace) chunkFor(vp uint64, grow bool) *asChunk {
	base := vp &^ uint64(chunkMask)
	if c := as.memo[0]; c != nil && c.base == base {
		return c
	}
	if c := as.memo[1]; c != nil && c.base == base {
		as.memo[0], as.memo[1] = c, as.memo[0]
		return c
	}
	// Binary search the sorted chunk list.
	lo, hi := 0, len(as.chunks)
	for lo < hi {
		mid := (lo + hi) / 2
		if as.chunks[mid].base < base {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(as.chunks) && as.chunks[lo].base == base {
		as.memo[0], as.memo[1] = as.chunks[lo], as.memo[0]
		return as.memo[0]
	}
	if !grow {
		return nil
	}
	// one chunk per 2 MB of newly touched address space, amortized over 512 page faults
	c := &asChunk{base: base}
	// the sorted chunk list grows to its high-water mark once per address space
	as.chunks = append(as.chunks, nil)
	copy(as.chunks[lo+1:], as.chunks[lo:])
	as.chunks[lo] = c
	as.memo[0], as.memo[1] = c, as.memo[0]
	return c
}

// Translate maps vaddr to its physical address, demand-allocating a frame on
// first touch (anonymous mmap semantics: serverless instances are entirely
// memory-resident, swap is disabled on FaaS hosts).
//
//lukewarm:hotpath noalloc,nobce the chunked-frame fast path replaced the flat map in PR 9; every access translates here
func (as *AddressSpace) Translate(vaddr uint64) uint64 {
	vp := PageOf(vaddr)
	c := as.memo[0]
	if c == nil || c.base != vp&^uint64(chunkMask) {
		c = as.chunkFor(vp, true)
	}
	slot := &c.frames[vp&chunkMask]
	if *slot == 0 {
		*slot = as.alloc.Alloc() | framePresent
		as.mapped++
		as.pages = nil
	}
	return (*slot &^ (PageSize - 1)) | (vaddr & (PageSize - 1))
}

// Lookup is Translate without demand allocation; ok reports whether the page
// is mapped.
//
//lukewarm:hotpath noalloc,nobce the restore engines probe mappings at line rate through this path
func (as *AddressSpace) Lookup(vaddr uint64) (paddr uint64, ok bool) {
	vp := PageOf(vaddr)
	c := as.chunkFor(vp, false)
	if c == nil {
		return 0, false
	}
	slot := c.frames[vp&chunkMask]
	if slot == 0 {
		return 0, false
	}
	return (slot &^ (PageSize - 1)) | (vaddr & (PageSize - 1)), true
}

// MappedPages reports the number of resident pages.
func (as *AddressSpace) MappedPages() int { return as.mapped }

// Pages returns the mapped virtual page numbers in ascending order. The
// slice is cached and shared between calls — callers must not mutate it —
// and is rebuilt only after a new mapping or a Compact invalidated it, so
// iteration sites no longer pay a per-call collect-and-sort.
func (as *AddressSpace) Pages() []uint64 {
	if as.pages == nil && as.mapped > 0 {
		pages := make([]uint64, 0, as.mapped)
		for _, c := range as.chunks {
			for i := range c.frames {
				if c.frames[i] != 0 {
					pages = append(pages, c.base+uint64(i))
				}
			}
		}
		as.pages = pages
	}
	return as.pages
}

// Compact migrates every mapped page to a fresh physical frame, modeling OS
// memory compaction / page migration. Virtual addresses are unaffected;
// all previously returned physical addresses become stale. Pages migrate in
// virtual-address order: frame assignment must not depend on iteration
// order, or physically-indexed cache behaviour after compaction — and with
// it the compaction experiment — differs run to run. The chunk list is
// sorted by construction, so the walk is already in virtual-address order.
func (as *AddressSpace) Compact() {
	for _, c := range as.chunks {
		for i := range c.frames {
			if c.frames[i] != 0 {
				c.frames[i] = as.alloc.Alloc() | framePresent
				as.Migrations++
			}
		}
	}
	as.pages = nil
}

// TLBConfig describes one TLB's geometry and the cost model of refills.
type TLBConfig struct {
	Name string
	Sets int
	Ways int
}

// Validate reports whether the geometry is realizable: positive ways and a
// positive power-of-two set count. Errors wrap cfgerr.ErrBadConfig.
func (c TLBConfig) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 || c.Ways <= 0 {
		return cfgerr.New("TLB %s: bad geometry %d sets x %d ways", c.Name, c.Sets, c.Ways)
	}
	return nil
}

// invalidVPage marks an empty TLB way. No real vpage collides with it:
// vpages are addr>>PageShift and simulated virtual addresses sit far below
// 2^52.
const invalidVPage = ^uint64(0)

// TLBStats counts TLB demand traffic.
type TLBStats struct {
	Accesses uint64
	Misses   uint64
	Flushes  uint64
}

// TLB is a set-associative translation lookaside buffer over virtual pages.
// It caches only reachability (the physical mapping is read from the
// AddressSpace on every translation, so Compact takes effect immediately
// after a Flush, exactly like a real TLB shootdown). Entries are stored flat
// in parallel arrays — the hit-path scan touches only the vpage tags — with
// the set mask and way count hoisted out of the config at construction.
type TLB struct {
	cfg     TLBConfig
	ways    int
	setMask uint64
	vpages  []uint64 // sets*ways, set-major; invalidVPage = empty
	lru     []uint64 // parallel to vpages
	tick    uint64
	Stats   TLBStats
}

// NewTLB builds a TLB; it panics on invalid geometry. Callers taking TLB
// geometry from user input should call TLBConfig.Validate first.
func NewTLB(cfg TLBConfig) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("vm: %v", err))
	}
	t := &TLB{
		cfg:     cfg,
		ways:    cfg.Ways,
		setMask: uint64(cfg.Sets - 1),
		vpages:  make([]uint64, cfg.Sets*cfg.Ways),
		lru:     make([]uint64, cfg.Sets*cfg.Ways),
	}
	for i := range t.vpages {
		t.vpages[i] = invalidVPage
	}
	return t
}

// Config returns the TLB's configuration.
func (t *TLB) Config() TLBConfig { return t.cfg }

func (t *TLB) setBase(vpage uint64) int {
	return int(vpage&t.setMask) * t.ways
}

// Access looks up vpage, returning whether it hit, and inserts it on a miss.
//
//lukewarm:hotpath noalloc,noescape one TLB lookup per instruction block and per data access
func (t *TLB) Access(vpage uint64) bool {
	t.Stats.Accesses++
	base := t.setBase(vpage)
	for i := base; i < base+t.ways; i++ {
		if t.vpages[i] == vpage {
			t.tick++
			t.lru[i] = t.tick
			return true
		}
	}
	t.Stats.Misses++
	vi := base
	for i := base; i < base+t.ways; i++ {
		if t.vpages[i] == invalidVPage {
			vi = i
			break
		}
		if t.lru[i] < t.lru[vi] {
			vi = i
		}
	}
	t.tick++
	t.vpages[vi] = vpage
	t.lru[vi] = t.tick
	return false
}

// Probe reports residency without inserting or counting.
//
//lukewarm:hotpath noalloc,inline the REAP manifest delta scan probes every recorded page; the loop must inline
func (t *TLB) Probe(vpage uint64) bool {
	base := t.setBase(vpage)
	for i := base; i < base+t.ways; i++ {
		if t.vpages[i] == vpage {
			return true
		}
	}
	return false
}

// Flush invalidates all entries (context switch / shootdown).
func (t *TLB) Flush() {
	for i := range t.vpages {
		t.vpages[i] = invalidVPage
	}
	t.Stats.Flushes++
}

// ResetStats zeroes the counters, keeping contents.
func (t *TLB) ResetStats() { t.Stats = TLBStats{} }

// EvictFraction invalidates approximately frac of the TLB's entries,
// modeling partial displacement by interleaved foreign translations.
func (t *TLB) EvictFraction(frac float64, rng func() uint64) {
	if frac <= 0 {
		return
	}
	// float64(...) rounds the product, so no architecture fuses it into the unsigned conversion (make fmagate).
	threshold := uint64(float64(frac * float64(1<<32)))
	for i := range t.vpages {
		if t.vpages[i] != invalidVPage && rng()&0xFFFFFFFF < threshold {
			t.vpages[i] = invalidVPage
		}
	}
}
