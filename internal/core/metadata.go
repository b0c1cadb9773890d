package core

// MetadataBuffer is one direction of a function instance's in-memory Jukebox
// metadata: an append-only sequence of entries bounded by the OS-programmed
// limit register. The buffer lives in physically contiguous memory
// (Sec. 3.4.1); PhysBase records where, so the replay engine can fetch it
// without address translation.
type MetadataBuffer struct {
	// PhysBase is the buffer's physical base address.
	PhysBase uint64
	entries  []Entry
	// entryBits is the packed storage cost per entry.
	entryBits int
	// limitBytes caps the buffer; <= 0 means unlimited (sizing studies).
	limitBytes int
	// Dropped counts entries discarded because the buffer was full.
	Dropped uint64

	// Seal state: a lightweight checksum written when recording finishes
	// (Seal) and checked before replay (Verify). Corruption of the underlying
	// memory — modeled by the mutators below — leaves the seal stale, so
	// the replay engine can detect it and degrade to record-only.
	sealSum  uint64
	sealBits int
	sealed   bool
}

// NewMetadataBuffer creates a buffer storing entries of entryBits packed
// bits, bounded by limitBytes (<= 0 for unlimited).
func NewMetadataBuffer(physBase uint64, entryBits, limitBytes int) *MetadataBuffer {
	if entryBits <= 0 {
		panic("core: metadata entry size must be positive")
	}
	return &MetadataBuffer{PhysBase: physBase, entryBits: entryBits, limitBytes: limitBytes}
}

// Append stores e if the limit allows and reports whether it was stored.
func (b *MetadataBuffer) Append(e Entry) bool {
	if b.limitBytes > 0 && (len(b.entries)+1)*b.entryBits > b.limitBytes*8 {
		b.Dropped++
		return false
	}
	b.entries = append(b.entries, e)
	return true
}

// Entries returns the stored entries in record order. The returned slice is
// the buffer's backing store; callers must not mutate it.
func (b *MetadataBuffer) Entries() []Entry { return b.entries }

// Len reports the number of stored entries.
func (b *MetadataBuffer) Len() int { return len(b.entries) }

// SizeBytes reports the packed metadata size (rounded up to whole bytes).
func (b *MetadataBuffer) SizeBytes() int {
	return (len(b.entries)*b.entryBits + 7) / 8
}

// Full reports whether the next Append would be dropped.
func (b *MetadataBuffer) Full() bool {
	return b.limitBytes > 0 && (len(b.entries)+1)*b.entryBits > b.limitBytes*8
}

// Reset empties the buffer for reuse, keeping its physical placement.
func (b *MetadataBuffer) Reset() {
	b.entries = b.entries[:0]
	b.Dropped = 0
	b.sealSum = 0
	b.sealBits = 0
	b.sealed = false
}

// checksum is an FNV-1a-style fold over the entry words plus the entry
// geometry. It is cheap (one multiply-xor per word), deterministic, and
// order-sensitive — exactly what a hardware metadata sealer would compute
// while streaming the buffer out to memory.
func (b *MetadataBuffer) checksum() uint64 {
	const offset, prime = 0xcbf29ce484222325, 0x100000001b3
	h := uint64(offset)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(uint64(b.entryBits))
	mix(uint64(len(b.entries)))
	for i := range b.entries {
		mix(b.entries[i].Region)
		mix(b.entries[i].Vector[0])
		mix(b.entries[i].Vector[1])
	}
	return h
}

// Seal stamps the buffer with a checksum over its current contents and
// geometry. The recording side calls this when an invocation ends, before
// the buffer becomes the replay source.
func (b *MetadataBuffer) Seal() {
	b.sealSum = b.checksum()
	b.sealBits = b.entryBits
	b.sealed = true
}

// SealedEntryBits reports the entry geometry recorded at seal time (0 if
// unsealed). A mismatch against the consumer's configured geometry means the
// metadata was produced by a differently-configured Jukebox.
func (b *MetadataBuffer) SealedEntryBits() int { return b.sealBits }

// Verify recomputes the checksum and reports whether the buffer still
// matches its seal. An unsealed buffer never verifies.
func (b *MetadataBuffer) Verify() bool {
	return b.sealed && b.sealBits == b.entryBits && b.checksum() == b.sealSum
}

// The mutators below model memory corruption of the in-DRAM metadata. They
// deliberately do NOT touch the seal: real corruption does not update
// checksums, which is precisely what lets Verify catch it.

// CorruptFlipBit flips one bit of one stored entry word. word selects
// Region (0) or a Vector half (1, 2); out-of-range indexes are reduced
// modulo the valid range so any seeded values are usable.
func (b *MetadataBuffer) CorruptFlipBit(entry, word, bit int) {
	if len(b.entries) == 0 {
		return
	}
	e := &b.entries[entry%len(b.entries)]
	mask := uint64(1) << (uint(bit) % 64)
	switch word % 3 {
	case 0:
		e.Region ^= mask
	case 1:
		e.Vector[0] ^= mask
	default:
		e.Vector[1] ^= mask
	}
}

// CorruptTruncate discards all but the first n entries (n < 0 keeps none),
// modeling a partial write-back or torn snapshot.
func (b *MetadataBuffer) CorruptTruncate(n int) {
	if n < 0 {
		n = 0
	}
	if n < len(b.entries) {
		b.entries = b.entries[:n]
	}
}

// CorruptZero zeroes every stored entry, modeling a lost or reinitialized
// backing page.
func (b *MetadataBuffer) CorruptZero() {
	for i := range b.entries {
		b.entries[i] = Entry{}
	}
}
