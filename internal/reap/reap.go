// Package reap implements record-and-prefetch restoration of a function's
// page-level working set, after REAP (Ustiugov et al., ASPLOS'21).
//
// The source paper optimizes *lukewarm* starts by replaying the instruction
// stream at region granularity (Jukebox); REAP attacks the *cold* start by
// recording the set of 4 KB pages — instruction and data alike — an
// invocation touches, persisting that manifest with the snapshot, and
// prefetching every recorded page ahead of demand when the snapshot is
// restored. This package models both halves against the existing timing
// machinery:
//
//   - Recording. The recorder observes the core's fetch stream
//     (cpu.InstrPrefetcher.OnFetch) and data stream (cpu.DataObserver) and
//     captures the ordered set of unique pages touched, at 4 KB granularity,
//     with per-page first-touch order. At invocation end the set is sealed
//     into a compact manifest — stable-sorted by page number, mirroring
//     REAP's record file — and the write-out is charged to DRAM as
//     metadata-record traffic.
//
//   - Restoring. At invocation start the sealed manifest is replayed in
//     first-touch order: the manifest stream itself is fetched as
//     metadata-replay traffic, each page's translation is installed into the
//     ITLB/DTLB through the real walker (charging page walks), and the
//     page's lines are installed into the LLC as prefetch traffic through
//     the shared DRAM model — so restore bandwidth contends with demand and
//     a page touched before its install completes counts as late
//     (timeliness model). Pages still TLB-resident are skipped, which makes
//     restore a *delta* on lukewarm starts and a full replay on cold ones.
//
// Divergence is accounted per invocation: a touched page absent from the
// manifest faults cold (DivergentPages), and a restored page never touched
// is pure waste (WastedPages/WastedBytes) — the stale-manifest cost that
// grows as the manifest ages relative to the function's churned data
// generations (see program.Invocation's generation alternation).
package reap

import (
	"sort"

	"lukewarm/internal/cfgerr"
	"lukewarm/internal/mem"
	"lukewarm/internal/vm"
)

// Config parameterizes a REAP recorder/restorer pair.
type Config struct {
	// MaxPages bounds the manifest; unique pages touched beyond the cap
	// are dropped (and counted). REAP's record file is tens of MB for
	// real snapshots; the default comfortably covers the suite's largest
	// working set.
	MaxPages int
	// EntryBytes is the size of one manifest entry in the record file
	// (page number plus kind/order metadata), metering the metadata
	// stream's DRAM traffic.
	EntryBytes int
	// Record captures the working set each invocation and reseals the
	// manifest at invocation end.
	Record bool
	// Restore replays the sealed manifest at invocation start.
	Restore bool
	// Cumulative unions each invocation's working set into the sealed
	// manifest instead of replacing it — REAP's record-since-snapshot
	// behavior. The manifest then only grows, and the wasted-prefetch
	// fraction grows with its age as dead data generations accumulate.
	Cumulative bool
}

// DefaultConfig is the REAP configuration used by the coldstart comparator.
func DefaultConfig() Config {
	return Config{MaxPages: 8192, EntryBytes: 8, Record: true, Restore: true}
}

// Validate reports whether the configuration is realizable. Errors wrap
// cfgerr.ErrBadConfig.
func (c Config) Validate() error {
	if c.MaxPages <= 0 {
		return cfgerr.New("reap: MaxPages %d must be positive", c.MaxPages)
	}
	if c.EntryBytes <= 0 || c.EntryBytes > mem.LineSize {
		return cfgerr.New("reap: EntryBytes %d must be in 1..%d", c.EntryBytes, mem.LineSize)
	}
	return nil
}

// PageEntry is one manifest record: a virtual page, which side of the core
// first touched it, and its first-touch position within the recorded
// invocation (the replay order).
type PageEntry struct {
	VPage      uint64
	Kind       mem.Kind
	FirstTouch uint32
}

// Manifest is a sealed record file: entries stable-sorted by VPage (the
// on-disk format), with FirstTouch preserving the original touch order.
// Seq counts the invocations sealed into it.
type Manifest struct {
	Entries []PageEntry
	Seq     uint64
}

// Pages reports the manifest's page count.
func (m *Manifest) Pages() int { return len(m.Entries) }

// Bytes reports the record-file size under the given entry width.
func (m *Manifest) Bytes(entryBytes int) uint64 {
	return uint64(len(m.Entries)) * uint64(entryBytes)
}

// Stats counts recorder and restorer events. All counters are cumulative
// since the last ResetStats except ManifestPages/ManifestBytes, which
// describe the current sealed manifest.
type Stats struct {
	// Invocations is the number of completed invocations observed.
	Invocations uint64
	// RecordedPages counts unique first-touches captured across
	// invocations; DroppedPages counts unique touches beyond MaxPages.
	RecordedPages uint64
	DroppedPages  uint64
	// ManifestPages/ManifestBytes describe the current sealed manifest.
	ManifestPages uint64
	ManifestBytes uint64
	// Restores counts restore passes; DeltaRestores the subset that
	// skipped at least one still-resident page (lukewarm deltas).
	Restores      uint64
	DeltaRestores uint64
	// ReplayedPages counts manifest entries streamed through the restore
	// engine; each is either installed (RestoredPages) or skipped because
	// its translation was still TLB-resident (SkippedResident).
	ReplayedPages   uint64
	RestoredPages   uint64
	SkippedResident uint64
	// PrefetchedLines/PrefetchedBytes count lines streamed into the LLC.
	// The restore is blind to cache residency (only TLB-resident pages are
	// skipped), so a line that happens to still be resident costs its
	// transfer anyway.
	PrefetchedLines uint64
	PrefetchedBytes uint64
	// RestoreWalks counts page walks charged while pre-populating TLBs.
	RestoreWalks uint64
	// UsedPages counts restored pages the invocation then touched;
	// LatePages the subset touched before their install completed.
	// WastedPages/WastedBytes count restored pages never touched — the
	// stale-manifest cost. Each restored page lands in exactly one of
	// UsedPages or WastedPages.
	UsedPages   uint64
	LatePages   uint64
	WastedPages uint64
	WastedBytes uint64
	// DivergentPages counts pages touched after a restore that the
	// manifest did not contain — they fault cold, REAP's divergence cost.
	DivergentPages uint64
	// LastRestoreDone is the cycle the most recent restore pass finished.
	LastRestoreDone mem.Cycle
}

// WastedFraction reports wasted / restored pages, the headline staleness
// metric.
func (s Stats) WastedFraction() float64 {
	if s.RestoredPages == 0 {
		return 0
	}
	return float64(s.WastedPages) / float64(s.RestoredPages)
}

// Reap is one instance's recorder/restorer pair. It implements
// cpu.InstrPrefetcher (instruction-side recording plus restore-at-start)
// and cpu.DataObserver (data-side recording).
type Reap struct {
	cfg  Config
	hier *mem.Hierarchy
	mmu  *vm.MMU

	Stats Stats

	record  bool
	restore bool

	// Per-invocation recording state: seen dedupes first touches, rec
	// accumulates them in touch order.
	seen pageSet
	rec  []PageEntry

	// Sealed manifest plus derived lookups: sealedSet for divergence
	// checks, replayOrder indexing Entries in first-touch order.
	sealed      Manifest
	sealedSet   map[uint64]struct{}
	replayOrder []int

	// Per-invocation restore state: restored maps installed pages to the
	// cycle their lines are ready; entries are deleted on first demand
	// touch so used and wasted pages are never double-counted.
	restored   map[uint64]mem.Cycle
	restoreRan bool

	// prewarmed latches that a pre-warm already ran the restore pass: the
	// next InvocationStart keeps the installed pages' ready times (so
	// used/late/wasted accounting settles inside the invocation as usual)
	// and skips its own restore. Cleared by anything that invalidates the
	// installed state.
	prewarmed bool
}

// New builds a Reap bound to the hierarchy and MMU of the core it will
// observe. It panics on invalid configuration, as the other prefetcher
// constructors do — configurations reaching New have been validated.
func New(cfg Config, hier *mem.Hierarchy, mmu *vm.MMU) *Reap {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := &Reap{
		cfg:      cfg,
		hier:     hier,
		mmu:      mmu,
		record:   cfg.Record,
		restore:  cfg.Restore,
		restored: make(map[uint64]mem.Cycle),
	}
	r.seen.init(minPageSlots)
	return r
}

// Bind re-points the recorder at another core's hierarchy and MMU — the
// instance migrated; its manifest travels with the snapshot.
func (r *Reap) Bind(hier *mem.Hierarchy, mmu *vm.MMU) {
	r.hier = hier
	r.mmu = mmu
}

// SetRecordEnabled toggles working-set recording; disabling it freezes the
// sealed manifest so later invocations restore from an aging record file.
func (r *Reap) SetRecordEnabled(on bool) { r.record = on && r.cfg.Record }

// SetRestoreEnabled toggles restore-at-start (record-only mode when off).
func (r *Reap) SetRestoreEnabled(on bool) { r.restore = on && r.cfg.Restore }

// RestoreEnabled reports whether restore-at-start is currently enabled.
func (r *Reap) RestoreEnabled() bool { return r.restore }

// Manifest exposes the sealed manifest (read-only; callers must not
// mutate).
func (r *Reap) ManifestView() *Manifest { return &r.sealed }

// InvocationStart implements cpu.InstrPrefetcher: replay the sealed
// manifest ahead of demand. The manifest stream is fetched as
// metadata-replay traffic; each non-resident page gets its translation
// pre-installed through the real walker and its lines installed into the
// LLC as prefetch traffic, all through the shared DRAM model so restore
// bandwidth contends with demand.
func (r *Reap) InvocationStart(now mem.Cycle) {
	r.seen.reset()
	r.rec = r.rec[:0]
	if r.prewarmed {
		// A pre-warm (BeginPrewarm) already streamed the manifest while the
		// instance was idle: keep the restored pages' ready times so the
		// invocation's demand touches settle used/late/wasted accounting
		// exactly as if the restore had run here, and skip the second pass.
		r.prewarmed = false
		return
	}
	clear(r.restored)
	r.restoreRan = false
	r.restoreNow(now)
}

// BeginPrewarm runs the restore pass ahead of the predicted next arrival,
// while the instance is idle. It reports whether a restore actually issued;
// when it did, a latch makes the next InvocationStart adopt the installed
// pages instead of restoring again. An already-pending pre-warm is not
// repeated.
func (r *Reap) BeginPrewarm(now mem.Cycle) bool {
	if r.prewarmed {
		return true
	}
	clear(r.restored)
	r.restoreRan = false
	r.restoreNow(now)
	r.prewarmed = r.restoreRan
	return r.restoreRan
}

// restoreNow is the restore engine shared by InvocationStart and
// BeginPrewarm.
func (r *Reap) restoreNow(now mem.Cycle) {
	if !r.restore || len(r.sealed.Entries) == 0 {
		return
	}
	r.restoreRan = true
	r.Stats.Restores++

	// First manifest line arrives from the snapshot store.
	cursor := now + r.hier.DRAM.Access(now, mem.TrafficMetadataReplay)
	streamed := 0
	skipped := false
	for _, idx := range r.replayOrder {
		e := r.sealed.Entries[idx]
		// Stream the record file a line at a time.
		streamed += r.cfg.EntryBytes
		for streamed >= mem.LineSize {
			streamed -= mem.LineSize
			cursor += r.hier.DRAM.Access(cursor, mem.TrafficMetadataReplay)
		}
		r.Stats.ReplayedPages++

		tlb := r.mmu.DTLB
		if e.Kind == mem.Instr {
			tlb = r.mmu.ITLB
		}
		if tlb.Probe(e.VPage) {
			// Still resident from the previous invocation: a lukewarm
			// delta skips it.
			r.Stats.SkippedResident++
			skipped = true
			continue
		}

		// Pre-populate the TLB, charging the walk to the restore stream.
		vaddr := e.VPage << 12
		var paddr uint64
		var walk mem.Cycle
		if e.Kind == mem.Instr {
			paddr, walk = r.mmu.TranslateInstr(cursor, vaddr)
		} else {
			paddr, walk = r.mmu.TranslateData(cursor, vaddr)
		}
		if walk > 0 {
			r.Stats.RestoreWalks++
			cursor += walk
		}

		// Install the page's lines behind the stream cursor; the page is
		// usable once its last line lands. The stream is blind to cache
		// residency — REAP copies recorded pages from the snapshot without
		// knowing what survived on chip — so redundant lines still occupy
		// prefetch bandwidth and push later installs' ready times out,
		// which is the restore's lukewarm-start penalty.
		ready := cursor
		for off := uint64(0); off < vm.PageSize; off += mem.LineSize {
			lineReady := r.hier.PrefetchLineIntoLLCBlind(cursor, paddr+off, e.Kind, mem.TrafficPrefetch)
			r.Stats.PrefetchedLines++
			r.Stats.PrefetchedBytes += mem.LineSize
			if lineReady > ready {
				ready = lineReady
			}
			cursor++ // replay engine issues one line per cycle
		}
		r.Stats.RestoredPages++
		r.restored[e.VPage] = ready
	}
	if skipped {
		r.Stats.DeltaRestores++
	}
	r.Stats.LastRestoreDone = cursor
}

// InvocationEnd implements cpu.InstrPrefetcher: settle waste accounting and
// reseal the manifest from this invocation's recording.
func (r *Reap) InvocationEnd(now mem.Cycle) {
	if r.restoreRan {
		// Whatever survives in restored was installed but never touched.
		w := uint64(len(r.restored))
		r.Stats.WastedPages += w
		r.Stats.WastedBytes += w * vm.PageSize
	}
	if r.record {
		r.seal(now)
	}
	r.Stats.Invocations++
}

// OnFetch implements cpu.InstrPrefetcher: record instruction pages.
func (r *Reap) OnFetch(now mem.Cycle, vaddr, _ uint64, _ mem.Result) {
	r.note(now, vaddr, mem.Instr)
}

// OnBlockRetire implements cpu.InstrPrefetcher; REAP does not consume the
// retire stream.
func (r *Reap) OnBlockRetire(mem.Cycle, uint64, uint64) {}

// OnDataAccess implements cpu.DataObserver: record data pages.
func (r *Reap) OnDataAccess(now mem.Cycle, vaddr, _ uint64, _ bool) {
	r.note(now, vaddr, mem.Data)
}

// note observes one demand access: first touches feed the recorder, and the
// first touch of a restored page settles its used/late accounting.
func (r *Reap) note(now mem.Cycle, vaddr uint64, k mem.Kind) {
	vp := vm.PageOf(vaddr)
	if !r.seen.add(vp) {
		return
	}

	if len(r.rec) < r.cfg.MaxPages {
		r.rec = append(r.rec, PageEntry{VPage: vp, Kind: k, FirstTouch: uint32(len(r.rec))})
		r.Stats.RecordedPages++
	} else {
		r.Stats.DroppedPages++
	}

	if ready, ok := r.restored[vp]; ok {
		r.Stats.UsedPages++
		if now < ready {
			r.Stats.LatePages++
		}
		// Delete so the page counts as used exactly once and never also
		// as wasted.
		delete(r.restored, vp)
	} else if r.restoreRan {
		if _, inManifest := r.sealedSet[vp]; !inManifest {
			// Touched but not in the record file: faults cold.
			r.Stats.DivergentPages++
		}
	}
}

// seal turns the invocation's recording into the new manifest and charges
// the record-file write-out as metadata-record traffic.
func (r *Reap) seal(now mem.Cycle) {
	merged := r.rec
	if r.cfg.Cumulative && len(r.sealed.Entries) > 0 {
		// Union: this invocation's pages first (freshest replay order),
		// then surviving stale pages from the old manifest.
		merged = append([]PageEntry(nil), r.rec...)
		fresh := make(map[uint64]struct{}, len(r.rec))
		for _, e := range r.rec {
			fresh[e.VPage] = struct{}{}
		}
		for _, idx := range r.replayOrder {
			e := r.sealed.Entries[idx]
			if _, ok := fresh[e.VPage]; ok {
				continue
			}
			if len(merged) >= r.cfg.MaxPages {
				break
			}
			merged = append(merged, e)
		}
		// Renumber first-touch order over the merged sequence.
		for i := range merged {
			merged[i].FirstTouch = uint32(i)
		}
	} else {
		merged = append([]PageEntry(nil), r.rec...)
	}

	sort.SliceStable(merged, func(i, j int) bool { return merged[i].VPage < merged[j].VPage })
	r.sealed = Manifest{Entries: merged, Seq: r.sealed.Seq + 1}
	r.index()
	r.Stats.ManifestPages = uint64(len(merged))
	r.Stats.ManifestBytes = r.sealed.Bytes(r.cfg.EntryBytes)
	r.hier.DRAM.AccessBytes(now, mem.TrafficMetadataRecord, len(merged)*r.cfg.EntryBytes)
}

// index rebuilds the sealed manifest's derived lookups.
func (r *Reap) index() {
	r.sealedSet = make(map[uint64]struct{}, len(r.sealed.Entries))
	for _, e := range r.sealed.Entries {
		r.sealedSet[e.VPage] = struct{}{}
	}
	r.replayOrder = make([]int, len(r.sealed.Entries))
	for i := range r.replayOrder {
		r.replayOrder[i] = i
	}
	sort.SliceStable(r.replayOrder, func(i, j int) bool {
		return r.sealed.Entries[r.replayOrder[i]].FirstTouch < r.sealed.Entries[r.replayOrder[j]].FirstTouch
	})
}

// AdoptManifest copies the donor's sealed manifest — the record file
// shipped with a snapshot to another host. The entry geometry must match;
// errors wrap cfgerr.ErrBadConfig.
func (r *Reap) AdoptManifest(donor *Reap) error {
	if donor == nil {
		return cfgerr.New("reap: adopting from nil donor")
	}
	if donor.cfg.EntryBytes != r.cfg.EntryBytes {
		return cfgerr.New("reap: manifest entry geometry mismatch (donor %d B, ours %d B)",
			donor.cfg.EntryBytes, r.cfg.EntryBytes)
	}
	r.sealed = Manifest{
		Entries: append([]PageEntry(nil), donor.sealed.Entries...),
		Seq:     donor.sealed.Seq,
	}
	r.index()
	r.Stats.ManifestPages = uint64(len(r.sealed.Entries))
	r.Stats.ManifestBytes = r.sealed.Bytes(r.cfg.EntryBytes)
	return nil
}

// DropManifest discards the sealed manifest — the record file died with its
// host (a node crash without manifest shipping).
func (r *Reap) DropManifest() {
	r.sealed = Manifest{}
	r.sealedSet = nil
	r.replayOrder = nil
	r.Stats.ManifestPages = 0
	r.Stats.ManifestBytes = 0
	r.prewarmed = false
}

// RestoreFootprintBytes reports the prefetch volume a full restore of the
// sealed manifest would stream — every manifest page's worth of lines. The
// predictive orchestrator charges this to its wasted-pre-warm ledger when a
// scheduled pre-warm's warmth decays unused.
func (r *Reap) RestoreFootprintBytes() uint64 {
	return uint64(len(r.sealed.Entries)) * vm.PageSize
}

// Abandon discards in-flight per-invocation state without sealing — the
// invocation died mid-run or the instance was reclaimed between
// invocations. The sealed manifest survives; it lives with the snapshot,
// not the instance's memory.
func (r *Reap) Abandon() {
	r.seen.reset()
	r.rec = r.rec[:0]
	clear(r.restored)
	r.restoreRan = false
	r.prewarmed = false
}

// ResetStats zeroes the counters while keeping the sealed manifest (and its
// descriptive ManifestPages/ManifestBytes) intact — the measurement-window
// idiom the other models follow.
func (r *Reap) ResetStats() {
	r.Stats = Stats{
		ManifestPages: uint64(len(r.sealed.Entries)),
		ManifestBytes: r.sealed.Bytes(r.cfg.EntryBytes),
	}
}
