package cpu

import (
	"lukewarm/internal/cfgerr"
	"lukewarm/internal/mem"
)

// BPConfig sizes the branch prediction structures (Table 1: "LTAGE (16K
// gShare 4K bimodal) + BTB 8K entries"). We implement the classic tournament
// organization that line describes: a history-indexed gshare table, a bimodal
// table, and a chooser.
type BPConfig struct {
	GshareEntries  int
	BimodalEntries int
	ChooserEntries int
	BTBEntries     int
	HistoryBits    int
}

// DefaultBPConfig matches Table 1.
func DefaultBPConfig() BPConfig {
	return BPConfig{
		GshareEntries:  16 << 10,
		BimodalEntries: 4 << 10,
		ChooserEntries: 4 << 10,
		BTBEntries:     8 << 10,
		HistoryBits:    14,
	}
}

// Validate reports whether the geometry is realizable: table sizes must be
// zero (select the default) or a power of two (they are indexed by masking),
// and the history length must fit the gshare hash. Errors wrap
// cfgerr.ErrBadConfig.
func (c BPConfig) Validate() error {
	for _, t := range []struct {
		name string
		n    int
	}{
		{"gshare", c.GshareEntries}, {"bimodal", c.BimodalEntries},
		{"chooser", c.ChooserEntries}, {"BTB", c.BTBEntries},
	} {
		if t.n < 0 || t.n&(t.n-1) != 0 {
			return cfgerr.New("predictor %s table size %d is not a power of two", t.name, t.n)
		}
	}
	if c.HistoryBits < 0 || c.HistoryBits > 64 {
		return cfgerr.New("predictor history length %d outside [0, 64]", c.HistoryBits)
	}
	return nil
}

// BPStats counts direction-prediction outcomes.
type BPStats struct {
	Predictions uint64
	Mispredicts uint64
}

// BranchPredictor is a tournament direction predictor: gshare vs. bimodal,
// selected per-branch by a chooser table. All tables hold 2-bit saturating
// counters.
type BranchPredictor struct {
	cfg     BPConfig
	gshare  []uint8
	bimodal []uint8
	chooser []uint8 // >=2 selects gshare, <2 selects bimodal
	history uint64
	Stats   BPStats
}

// NewBranchPredictor builds a predictor; zero-valued config fields fall back
// to defaults. Table sizes must be powers of two (panic otherwise: they are
// design-time constants).
func NewBranchPredictor(cfg BPConfig) *BranchPredictor {
	def := DefaultBPConfig()
	if cfg.GshareEntries == 0 {
		cfg.GshareEntries = def.GshareEntries
	}
	if cfg.BimodalEntries == 0 {
		cfg.BimodalEntries = def.BimodalEntries
	}
	if cfg.ChooserEntries == 0 {
		cfg.ChooserEntries = def.ChooserEntries
	}
	if cfg.BTBEntries == 0 {
		cfg.BTBEntries = def.BTBEntries
	}
	if cfg.HistoryBits == 0 {
		cfg.HistoryBits = def.HistoryBits
	}
	if err := cfg.Validate(); err != nil {
		panic("cpu: " + err.Error())
	}
	bp := &BranchPredictor{cfg: cfg}
	t, ok := freeBPTables.Take(bpShape{cfg.GshareEntries, cfg.BimodalEntries, cfg.ChooserEntries})
	if !ok {
		t = bpTables{make([]uint8, cfg.GshareEntries), make([]uint8, cfg.BimodalEntries), make([]uint8, cfg.ChooserEntries)}
	}
	bp.gshare, bp.bimodal, bp.chooser = t.gshare, t.bimodal, t.chooser
	bp.Flush() // a recycled table's counters are stale
	return bp
}

// bpShape keys released predictor tables by their sizes; bpTables are one
// predictor's tables.
type (
	bpShape  struct{ gshare, bimodal, chooser int }
	bpTables struct{ gshare, bimodal, chooser []uint8 }
)

// freeBPTables holds released predictor tables (24 KB per default core)
// for the next predictor of the same sizes; see mem.FreeList.
var freeBPTables = mem.NewFreeList[bpShape, bpTables](1 << 20)

// Release hands the predictor's tables to the next NewBranchPredictor of
// the same sizes and poisons bp: a later prediction panics. Stats stay
// readable; a second Release does nothing.
func (bp *BranchPredictor) Release() {
	if bp.gshare == nil {
		return
	}
	freeBPTables.Give(bpShape{len(bp.gshare), len(bp.bimodal), len(bp.chooser)},
		bpTables{bp.gshare, bp.bimodal, bp.chooser}, len(bp.gshare)+len(bp.bimodal)+len(bp.chooser))
	bp.gshare, bp.bimodal, bp.chooser = nil, nil, nil
}

func (bp *BranchPredictor) gshareIdx(pc uint64) int {
	h := bp.history & ((1 << bp.cfg.HistoryBits) - 1)
	return int((pc>>2)^h) & (bp.cfg.GshareEntries - 1)
}

func (bp *BranchPredictor) bimodalIdx(pc uint64) int {
	return int(pc>>2) & (bp.cfg.BimodalEntries - 1)
}

func (bp *BranchPredictor) chooserIdx(pc uint64) int {
	return int(pc>>2) & (bp.cfg.ChooserEntries - 1)
}

// Predict returns the predicted direction for the conditional branch at pc.
func (bp *BranchPredictor) Predict(pc uint64) bool {
	if bp.chooser[bp.chooserIdx(pc)] >= 2 {
		return bp.gshare[bp.gshareIdx(pc)] >= 2
	}
	return bp.bimodal[bp.bimodalIdx(pc)] >= 2
}

// Update trains the predictor with the branch's actual outcome and reports
// whether the prediction (as of before the update) was correct.
func (bp *BranchPredictor) Update(pc uint64, taken bool) bool {
	gi, bi, ci := bp.gshareIdx(pc), bp.bimodalIdx(pc), bp.chooserIdx(pc)
	gPred := bp.gshare[gi] >= 2
	bPred := bp.bimodal[bi] >= 2
	var pred bool
	if bp.chooser[ci] >= 2 {
		pred = gPred
	} else {
		pred = bPred
	}
	correct := pred == taken
	bp.Stats.Predictions++
	if !correct {
		bp.Stats.Mispredicts++
	}

	// Train the component tables.
	bp.gshare[gi] = bumpCounter(bp.gshare[gi], taken)
	bp.bimodal[bi] = bumpCounter(bp.bimodal[bi], taken)
	// Train the chooser toward whichever component was right (only when
	// they disagree).
	if gPred != bPred {
		bp.chooser[ci] = bumpCounter(bp.chooser[ci], gPred == taken)
	}
	bp.history = (bp.history << 1) | b2u(taken)
	return correct
}

// Flush resets all prediction state to weakly-taken neutral, modeling total
// obliteration by interleaved executions.
func (bp *BranchPredictor) Flush() {
	for i := range bp.gshare {
		bp.gshare[i] = 1
	}
	for i := range bp.bimodal {
		bp.bimodal[i] = 1
	}
	for i := range bp.chooser {
		bp.chooser[i] = 1
	}
	bp.history = 0
}

// ResetStats zeroes the counters without touching prediction state.
func (bp *BranchPredictor) ResetStats() { bp.Stats = BPStats{} }

// DecayFraction resets approximately frac of all prediction counters to the
// weak state, modeling partial overwriting by interleaved foreign branches.
func (bp *BranchPredictor) DecayFraction(frac float64, rng func() uint64) {
	if frac <= 0 {
		return
	}
	// float64(...) rounds the product, so no architecture fuses it into the unsigned conversion (make fmagate).
	threshold := uint64(float64(frac * float64(1<<32)))
	decay := func(table []uint8) {
		for i := range table {
			if rng()&0xFFFFFFFF < threshold {
				table[i] = 1
			}
		}
	}
	decay(bp.gshare)
	decay(bp.bimodal)
	decay(bp.chooser)
	if frac >= 0.5 {
		bp.history = 0
	}
}

// MispredictRate reports mispredictions per prediction, or 0 when idle.
func (s BPStats) MispredictRate() float64 {
	if s.Predictions == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Predictions)
}

func bumpCounter(c uint8, up bool) uint8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BTBStats counts target-prediction outcomes for taken branches.
type BTBStats struct {
	Lookups uint64
	// Resteers counts taken branches whose target was absent or wrong in
	// the BTB, forcing a front-end redirect (a Fetch Latency event in
	// Top-Down terms).
	Resteers uint64
}

// BTB is a direct-mapped branch target buffer.
type BTB struct {
	entries int
	tags    []uint64
	targets []uint64
	valid   []bool
	Stats   BTBStats
}

// NewBTB builds a BTB with n entries (power of two; panics otherwise).
func NewBTB(n int) *BTB {
	if n <= 0 || n&(n-1) != 0 {
		panic("cpu: BTB size must be a power of two")
	}
	b := &BTB{entries: n}
	if t, ok := freeBTBs.Take(n); ok {
		b.tags, b.targets, b.valid = t.tags, t.targets, t.valid
		b.Flush() // tags and targets are read only behind valid
		return b
	}
	b.tags, b.targets, b.valid = make([]uint64, n), make([]uint64, n), make([]bool, n)
	return b
}

// btbArrays are one BTB's arrays.
type btbArrays struct {
	tags, targets []uint64
	valid         []bool
}

// freeBTBs holds released BTB arrays (139 KB per default core) by entry
// count for the next NewBTB of the same size; two 16-core servers' fit. See
// mem.FreeList.
var freeBTBs = mem.NewFreeList[int, btbArrays](5 << 20)

// Release hands the BTB's arrays to the next NewBTB of the same size and
// poisons b: a later lookup panics. Stats stay readable; a second Release
// does nothing.
func (b *BTB) Release() {
	if b.valid == nil {
		return
	}
	freeBTBs.Give(b.entries, btbArrays{b.tags, b.targets, b.valid}, 17*b.entries)
	b.tags, b.targets, b.valid = nil, nil, nil
}

func (b *BTB) idx(pc uint64) int { return int(pc>>2) & (b.entries - 1) }

// LookupAndUpdate predicts the target of the taken branch at pc, installs
// the actual target, and reports whether the front end had the correct
// target (no resteer needed).
func (b *BTB) LookupAndUpdate(pc, target uint64) bool {
	b.Stats.Lookups++
	i := b.idx(pc)
	hit := b.valid[i] && b.tags[i] == pc && b.targets[i] == target
	if !hit {
		b.Stats.Resteers++
	}
	b.tags[i] = pc
	b.targets[i] = target
	b.valid[i] = true
	return hit
}

// Flush invalidates all entries.
func (b *BTB) Flush() {
	for i := range b.valid {
		b.valid[i] = false
	}
}

// ResetStats zeroes counters, keeping contents.
func (b *BTB) ResetStats() { b.Stats = BTBStats{} }

// EvictFraction invalidates approximately frac of the BTB's entries,
// modeling partial displacement by interleaved foreign branches.
func (b *BTB) EvictFraction(frac float64, rng func() uint64) {
	if frac <= 0 {
		return
	}
	// float64(...) rounds the product, so no architecture fuses it into the unsigned conversion (make fmagate).
	threshold := uint64(float64(frac * float64(1<<32)))
	for i := range b.valid {
		if b.valid[i] && rng()&0xFFFFFFFF < threshold {
			b.valid[i] = false
		}
	}
}
