package mem

import (
	"slices"
	"sync"
	"unsafe"
)

// Recycled simulated-hardware storage. A simulated server lives for one
// sweep cell or one fleet run, but its caches hold megabytes of host arrays
// (an 8 MB LLC's are 2.36 MB), so building servers back to back would hand
// the collector a server's worth of garbage each time. Whoever builds a cache
// releases it when done (Cache.Release; Hierarchy.Release for the levels a
// hierarchy built), and NewCache takes released arrays of the same geometry
// before it allocates. package cpu keeps its branch tables the same way.
//
// Cache reuse needs no clearing. A released cache's epoch is at least every
// set's recorded epoch, so the next owner starts one epoch past it and every
// set reads as flushed: lookups miss without reading a tag, and the first
// install into a set resets its tags and recency (resetSet), exactly the
// state the lazy Flush leaves. The counters, liveValid, livePrefUnused and
// lruTick live in the Cache, not in the arrays, and start at zero; ready is
// read only for a line installed as prefetched since; stale signatures are
// confirmed against the reset tags. A recycled cache is therefore
// indistinguishable from a new one.

// FreeList holds released host arrays by shape for the next structure of
// the same shape. It retains at most its budget in bytes: a release that
// overflows it drops the oldest arrays first, so a long run keeps only what
// it released last, never every shape it ever built. It is safe for
// concurrent use.
type FreeList[K comparable, V any] struct {
	budget int
	mu     sync.Mutex
	items  []freeItem[K, V] // oldest first
	bytes  int
}

type freeItem[K comparable, V any] struct {
	key   K
	v     V
	bytes int
}

// NewFreeList returns an empty free list that retains at most budget bytes.
func NewFreeList[K comparable, V any](budget int) *FreeList[K, V] {
	return &FreeList[K, V]{budget: budget}
}

// Take removes and returns the most recently released arrays of shape k.
func (f *FreeList[K, V]) Take(k K) (V, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := len(f.items) - 1; i >= 0; i-- {
		if it := f.items[i]; it.key == k {
			f.items = slices.Delete(f.items, i, i+1)
			f.bytes -= it.bytes
			return it.v, true
		}
	}
	var zero V
	return zero, false
}

// Give adds v, of shape k and holding bytes of host memory, then drops the
// oldest arrays until the list fits its budget again.
func (f *FreeList[K, V]) Give(k K, v V, bytes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.items = append(f.items, freeItem[K, V]{k, v, bytes})
	f.bytes += bytes
	n := 0
	for f.bytes > f.budget {
		f.bytes -= f.items[n].bytes
		n++
	}
	f.items = slices.Delete(f.items, 0, n)
}

// Retained reports how many released structures the list holds and their
// bytes.
func (f *FreeList[K, V]) Retained() (n, bytes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.items), f.bytes
}

// cacheBudget bounds the cache arrays retained: two 16-core Skylake
// servers' caches (two concurrent sweep cells) fit, as do a four-node
// fleet's.
const cacheBudget = 16 << 20

// freeCaches holds released cache arrays by geometry.
var freeCaches = NewFreeList[geometry, storage](cacheBudget)

// geometry keys freeCaches: arrays fit any cache with the same sets and
// ways.
type geometry struct{ sets, ways int }

// storage is one cache's host arrays and the highest epoch any of its sets
// recorded.
type storage struct {
	lines []uint64
	ready []Cycle
	meta  []setMeta
	lru   []uint64 // caches wider than maxPackedWays only
	epoch uint64
}

// bytes is the host memory the arrays hold.
func (st *storage) bytes() int {
	return 8*(len(st.lines)+len(st.ready)+len(st.lru)) + int(unsafe.Sizeof(setMeta{}))*len(st.meta)
}

// Retained reports how many caches' arrays the free list holds and their
// bytes.
func Retained() (caches, bytes int) { return freeCaches.Retained() }

// Release hands c's host arrays to the next NewCache of the same geometry
// and poisons c: its arrays become nil, so a later lookup, install or probe
// panics instead of reading or writing the next owner's lines. Counters stay
// readable. A second Release does nothing, so the arrays enter the free list
// once.
func (c *Cache) Release() {
	if c.lines == nil {
		return
	}
	st := storage{c.lines, c.ready, c.meta, c.lru, c.epoch}
	freeCaches.Give(geometry{len(c.meta), c.ways}, st, st.bytes())
	c.lines, c.ready, c.meta, c.lru = nil, nil, nil, nil
}
