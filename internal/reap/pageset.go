package reap

// pageSet is the recorder's set of pages touched in the current
// invocation, on the path of every fetch block and data access. It is an
// open-addressed table with linear probing; each slot carries the
// generation that wrote it, so a slot from an earlier generation is empty
// and reset is O(1). The table doubles at half load and is kept across
// invocations, so steady-state recording does not allocate.
type pageSet struct {
	slots []pageSlot
	gen   uint64 // current generation; slots with another gen are empty
	n     int    // pages in the current generation
	shift uint   // 64 - log2(len(slots))
}

type pageSlot struct {
	page, gen uint64
}

// fibHash is 2^64 divided by the golden ratio: Fibonacci hashing spreads
// consecutive page numbers over the table.
const fibHash = 0x9E3779B97F4A7C15

// minPageSlots is the table size a pageSet starts at.
const minPageSlots = 64

// add inserts page and reports whether it was absent.
//
//lukewarm:hotpath noalloc,noescape the per-access REAP record check; a page already seen costs one hash, one probe and a compare
func (p *pageSet) add(page uint64) bool {
	mask := len(p.slots) - 1
	for i := int(page * fibHash >> p.shift); ; i = (i + 1) & mask {
		sl := &p.slots[i]
		if sl.gen != p.gen {
			if 2*(p.n+1) > len(p.slots) {
				p.grow()
				return p.add(page)
			}
			*sl = pageSlot{page: page, gen: p.gen}
			p.n++
			return true
		}
		if sl.page == page {
			return false
		}
	}
}

// grow rehashes the current generation's pages into a table twice the size.
func (p *pageSet) grow() {
	old, gen := p.slots, p.gen
	p.init(2 * len(old))
	for _, sl := range old {
		if sl.gen == gen {
			p.add(sl.page)
		}
	}
}

// init makes an empty table of n slots, a power of two.
func (p *pageSet) init(n int) {
	p.slots = make([]pageSlot, n) // the table doubles to the working set's high-water mark once, then is reused
	p.gen = 1
	p.n = 0
	p.shift = 64
	for ; n > 1; n >>= 1 {
		p.shift--
	}
}

// reset empties the set in O(1).
func (p *pageSet) reset() {
	p.gen++
	p.n = 0
}
