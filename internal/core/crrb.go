package core

// Entry is one unit of Jukebox metadata: a code-region pointer plus an
// access vector with one bit per cache line in the region. Vector is two
// words so the largest swept region size (8 KB = 128 lines) fits.
type Entry struct {
	// Region is the region's address right-shifted by the region size: the
	// CRRB tag and the metadata region pointer. Virtual by default;
	// physical in the ablation mode.
	Region uint64
	// Vector has bit n set when line n of the region missed in the L2.
	Vector [2]uint64
}

// SetBit marks line n as accessed.
func (e *Entry) SetBit(n int) { e.Vector[n>>6] |= 1 << (uint(n) & 63) }

// Bit reports whether line n is marked.
func (e *Entry) Bit(n int) bool { return e.Vector[n>>6]&(1<<(uint(n)&63)) != 0 }

// PopCount reports the number of marked lines.
func (e *Entry) PopCount() int {
	n := 0
	for _, w := range e.Vector {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// CRRB is the Code Region Reference Buffer: a small fully-associative FIFO
// keyed by region pointer (Sec. 3.2). Inserting into a full CRRB evicts the
// oldest entry, which becomes immutable metadata; a later miss to the same
// region allocates a fresh entry rather than recalling the evicted one.
type CRRB struct {
	entries []Entry
	valid   []bool
	head    int // oldest entry (next eviction victim)
	count   int
	// Coalesced counts bit-sets on existing entries; Evictions counts
	// entries pushed out to memory by capacity.
	Coalesced uint64
	Evictions uint64
}

// NewCRRB builds a CRRB with n entries; n must be positive (panic: design
// constant).
func NewCRRB(n int) *CRRB {
	if n <= 0 {
		panic("core: CRRB size must be positive")
	}
	return &CRRB{entries: make([]Entry, n), valid: make([]bool, n)}
}

// Len reports the current occupancy.
func (c *CRRB) Len() int { return c.count }

// Record notes that line lineIdx of region missed in the L2. If the region
// is resident its vector is updated; otherwise a new entry is allocated,
// evicting the oldest entry when full. The evicted entry (to be written to
// the in-memory metadata) is returned with evicted=true.
func (c *CRRB) Record(region uint64, lineIdx int) (out Entry, evicted bool) {
	// Fully-associative lookup.
	for i := 0; i < len(c.entries); i++ {
		if c.valid[i] && c.entries[i].Region == region {
			c.entries[i].SetBit(lineIdx)
			c.Coalesced++
			return Entry{}, false
		}
	}
	// Allocate; evict the FIFO head if full.
	if c.count == len(c.entries) {
		out = c.entries[c.head]
		c.valid[c.head] = false
		c.count--
		evicted = true
		c.Evictions++
		// New entry takes the vacated slot; head advances.
		idx := c.head
		c.head = (c.head + 1) % len(c.entries)
		var e Entry
		e.Region = region
		e.SetBit(lineIdx)
		c.entries[idx] = e
		c.valid[idx] = true
		c.count++
		return out, true
	}
	// There is a free slot: entries are kept in arrival order in the ring
	// starting at head.
	idx := (c.head + c.count) % len(c.entries)
	var e Entry
	e.Region = region
	e.SetBit(lineIdx)
	c.entries[idx] = e
	c.valid[idx] = true
	c.count++
	return Entry{}, false
}

// Drain removes and returns all resident entries in FIFO (arrival) order,
// used at invocation end to seal the metadata.
func (c *CRRB) Drain() []Entry {
	out := make([]Entry, 0, c.count)
	for i := 0; i < len(c.entries) && c.count > 0; i++ {
		idx := c.head
		if c.valid[idx] {
			out = append(out, c.entries[idx])
			c.valid[idx] = false
			c.count--
		}
		c.head = (c.head + 1) % len(c.entries)
	}
	c.head = 0
	return out
}

// Reset empties the CRRB and zeroes its counters.
func (c *CRRB) Reset() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.head = 0
	c.count = 0
	c.Coalesced = 0
	c.Evictions = 0
}
