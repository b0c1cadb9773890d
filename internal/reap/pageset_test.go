package reap

import "testing"

// TestPageSetMatchesMap drives the page set and a map with the same
// insert/reset stream across several table doublings.
func TestPageSetMatchesMap(t *testing.T) {
	var p pageSet
	p.init(minPageSlots)
	ref := map[uint64]bool{}
	x := uint64(88172645463325252)
	for step := 0; step < 200000; step++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x%5000 == 0 {
			p.reset()
			clear(ref)
			continue
		}
		page := x % 3000
		if x&1 == 0 {
			page = x >> 20 // sparse, high pages
		}
		want := !ref[page]
		ref[page] = true
		if got := p.add(page); got != want {
			t.Fatalf("step %d: add(%d) = %v, want %v", step, page, got, want)
		}
		if p.n != len(ref) {
			t.Fatalf("step %d: %d pages, want %d", step, p.n, len(ref))
		}
	}
}

// TestPageSetResetKeepsTable pins the O(1) reset: the table survives, and
// refilling it to the same size allocates nothing.
func TestPageSetResetKeepsTable(t *testing.T) {
	var p pageSet
	p.init(minPageSlots)
	for i := uint64(0); i < 1000; i++ {
		p.add(i)
	}
	n := len(p.slots)
	allocs := testing.AllocsPerRun(5, func() {
		p.reset()
		for i := uint64(0); i < 1000; i++ {
			if !p.add(i) {
				t.Fatal("page seen before reset reported present")
			}
		}
	})
	if allocs != 0 || len(p.slots) != n {
		t.Fatalf("reset+refill: %.1f allocs, table %d -> %d slots", allocs, n, len(p.slots))
	}
}
