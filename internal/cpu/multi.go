package cpu

import "lukewarm/internal/mem"

// MultiPrefetcher fans every hook out to each member in order, enabling
// combined configurations such as the paper's "JB + PIF-ideal" (Fig. 13).
type MultiPrefetcher []InstrPrefetcher

var _ InstrPrefetcher = MultiPrefetcher(nil)

// InvocationStart implements InstrPrefetcher.
func (m MultiPrefetcher) InvocationStart(now mem.Cycle) {
	for _, p := range m {
		p.InvocationStart(now)
	}
}

// InvocationEnd implements InstrPrefetcher.
func (m MultiPrefetcher) InvocationEnd(now mem.Cycle) {
	for _, p := range m {
		p.InvocationEnd(now)
	}
}

// OnFetch implements InstrPrefetcher.
func (m MultiPrefetcher) OnFetch(now mem.Cycle, vaddr, paddr uint64, res mem.Result) {
	for _, p := range m {
		p.OnFetch(now, vaddr, paddr, res)
	}
}

// OnBlockRetire implements InstrPrefetcher.
func (m MultiPrefetcher) OnBlockRetire(now mem.Cycle, vBlock, pBlock uint64) {
	for _, p := range m {
		p.OnBlockRetire(now, vBlock, pBlock)
	}
}

// OnDataAccess implements DataObserver, forwarding to the members that
// observe the data side. Core does not call it: it resolves the members'
// observers once per invocation (appendDataObservers) and calls them
// directly.
func (m MultiPrefetcher) OnDataAccess(now mem.Cycle, vaddr, paddr uint64, store bool) {
	for _, p := range m {
		if o, ok := p.(DataObserver); ok {
			o.OnDataAccess(now, vaddr, paddr, store)
		}
	}
}
