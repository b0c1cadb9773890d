package check

import (
	"testing"

	"lukewarm/internal/vm"
)

// TestPageTableDifferential runs the flat-vs-map page-table battery: the
// chunked flat frame table in internal/vm must agree with the map-backed
// reference on every translation, lookup, page enumeration and compaction.
func TestPageTableDifferential(t *testing.T) {
	runChecks(t, pagetableChecks(), func(n string) string { return n })
}

// TestPageTableDivergenceDetected makes sure the reference model has teeth:
// models fed from skewed frame allocators must disagree on the physical
// translation (so the differential harness would report it), while agreeing
// on the purely virtual observables.
func TestPageTableDivergenceDetected(t *testing.T) {
	flat := vm.NewAddressSpace(vm.NewFrameAllocator(0))
	ref := newRefPageTable(vm.NewFrameAllocator(1))
	const vaddr = 0x1234
	if got, want := flat.Translate(vaddr), ref.translate(vaddr); got == want {
		t.Fatalf("skewed allocators translated identically (%#x); harness has no teeth", got)
	}
	if got, want := flat.MappedPages(), len(ref.frames); got != want {
		t.Fatalf("MappedPages %d != reference %d", got, want)
	}
}
