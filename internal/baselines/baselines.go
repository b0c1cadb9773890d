// Package baselines implements the simpler comparison points the paper's
// related-work section positions Jukebox against (Sec. 6):
//
//   - NextLineI: a sequential next-line instruction prefetcher at the L1-I —
//     the classic low-cost front-end prefetcher. It helps straight-line runs
//     but cannot anticipate the discontinuities that dominate lukewarm
//     working-set re-fetch.
//   - Recap: a context-restoration scheme in the spirit of RECAP (Zebchuk
//     et al., HPCA'13) and Daly & Cain (HPCA'12): on a context switch out,
//     save the *physical* addresses of the entire LLC-resident footprint;
//     on switch-in, bulk-restore it into the LLC. The paper's critique is
//     reproduced by construction: metadata is proportional to the
//     multi-megabyte LLC footprint rather than the instruction working set,
//     restoration is indiscriminate (instructions and data alike, used or
//     not), misses still pay the LLC hit latency rather than Jukebox's L2
//     hit, and physical addressing breaks under OS page migration.
package baselines

import "lukewarm/internal/mem"

// NextLineI is a sequential next-line instruction prefetcher: on every
// demand fetch of block B it stages B+1 in the instruction prefetch buffer.
// It implements cpu.InstrPrefetcher structurally.
type NextLineI struct {
	hier *mem.Hierarchy
	// Degree is how many sequential blocks to stage ahead (1 = classic
	// next-line).
	Degree int
	// FrontierPenalty is the commit-clock vs fetch-clock correction also
	// applied to PIF (see pif.Config.FrontierPenalty): a next-line prefetch
	// issued "one block ahead" in commit time has almost no lead over the
	// real fetch stream.
	FrontierPenalty mem.Cycle
	// Prefetches counts issued prefetch requests.
	Prefetches uint64
}

// nextLineBufferLines sizes the staging buffer.
const nextLineBufferLines = 16

// NewNextLineI builds the prefetcher and enables the hierarchy's
// instruction prefetch buffer.
func NewNextLineI(hier *mem.Hierarchy, degree int) *NextLineI {
	if degree <= 0 {
		degree = 1
	}
	if hier != nil {
		hier.EnablePrefetchBuffer(nextLineBufferLines)
	}
	return &NextLineI{hier: hier, Degree: degree, FrontierPenalty: 40}
}

// InvocationStart implements cpu.InstrPrefetcher (stateless).
func (n *NextLineI) InvocationStart(mem.Cycle) {}

// InvocationEnd implements cpu.InstrPrefetcher (stateless).
func (n *NextLineI) InvocationEnd(mem.Cycle) {}

// OnFetch stages the sequentially-next blocks.
func (n *NextLineI) OnFetch(now mem.Cycle, _, paddr uint64, _ mem.Result) {
	blk := mem.BlockAddr(paddr)
	for d := 1; d <= n.Degree; d++ {
		n.hier.PrefetchIntoBuffer(now+n.FrontierPenalty, blk+uint64(d)*mem.LineSize, mem.TrafficPrefetch)
		n.Prefetches++
	}
}

// OnBlockRetire implements cpu.InstrPrefetcher (unused).
func (n *NextLineI) OnBlockRetire(mem.Cycle, uint64, uint64) {}

// RecapStats counts save/restore activity.
type RecapStats struct {
	// SavedBlocks counts footprint entries written at context-switch-out.
	SavedBlocks uint64
	// RestoredBlocks counts restoration prefetches issued.
	RestoredBlocks uint64
	// Invocations counts save/restore cycles.
	Invocations uint64
	// LastMetadataBytes is the footprint metadata size of the most recent
	// save (4 bytes per block, as in the published region-compressed
	// schemes).
	LastMetadataBytes int
}

// Recap is the per-instance context-restoration state: the physical block
// addresses of the LLC footprint saved at the last deschedule. The saved
// footprint is the whole LLC-resident set, as prior works store the
// footprint of the entire partition, and restoration issues one block per
// cycle at the LLC fill port (DRAM bandwidth still applies on top).
type Recap struct {
	hier  *mem.Hierarchy
	saved []uint64
	Stats RecapStats
}

// NewRecap builds the baseline attached to hier.
func NewRecap(hier *mem.Hierarchy) *Recap { return &Recap{hier: hier} }

// SavedBlocks reports the current footprint size in blocks.
func (r *Recap) SavedBlocks() int { return len(r.saved) }

// InvocationStart restores the saved footprint into the LLC: a bulk
// sequence of physical-address prefetches, indiscriminately covering
// everything that was resident — instructions, data, dead lines alike.
func (r *Recap) InvocationStart(now mem.Cycle) {
	cursor := now
	for _, blk := range r.saved {
		r.hier.PrefetchIntoLLC(cursor, blk, mem.TrafficPrefetch)
		r.Stats.RestoredBlocks++
		cursor++
	}
}

// InvocationEnd snapshots the LLC-resident footprint (the context-switch-out
// save). The save costs metadata-write memory traffic.
func (r *Recap) InvocationEnd(now mem.Cycle) {
	r.saved = r.hier.LLC.ResidentBlocks(r.saved[:0])
	r.Stats.SavedBlocks += uint64(len(r.saved))
	r.Stats.LastMetadataBytes = 4 * len(r.saved)
	r.hier.DRAM.AccessBytes(now, mem.TrafficMetadataRecord, r.Stats.LastMetadataBytes)
	r.Stats.Invocations++
}

// OnFetch implements cpu.InstrPrefetcher (RECAP acts only at switches).
func (r *Recap) OnFetch(mem.Cycle, uint64, uint64, mem.Result) {}

// OnBlockRetire implements cpu.InstrPrefetcher (unused).
func (r *Recap) OnBlockRetire(mem.Cycle, uint64, uint64) {}

// ResetStats zeroes the counters (the saved footprint persists).
func (r *Recap) ResetStats() { r.Stats = RecapStats{} }
