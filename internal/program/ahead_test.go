package program

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// tinyConfig is a short function: 4 KB of code and about 1,100
// instructions per invocation, well inside a record.
func tinyConfig(seed uint64) Config {
	return Config{
		Name: "tiny", Seed: seed,
		CodeKB: 4, DynamicInstrs: 600, InstrPerLine: 16,
		CoreFrac: 0.8, OptionalProb: 0.7, RareFrac: 0.05, RareProb: 0.05,
		LoadFrac: 0.25, StoreFrac: 0.1, CondFrac: 0.3, CondBias: 0.9, NoisyFrac: 0.02,
		IndirectFrac: 0.1, CallFrac: 0.3, SkipFrac: 0.04,
		DataKB: 16, HotDataKB: 4, HotDataFrac: 0.6, ColdDataFrac: 0.05, DepLoadFrac: 0.2, KernelFrac: 0.1,
	}
}

// spareP gives the test a spare P, so that streams walk ahead.
func spareP(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// startWithTicket fills a record of invocation recID of recP in a slot of a
// budget, starts a stream that holds the slot's ticket on invocation id of
// p, and reports whether the stream replays that record.
func startWithTicket(t *testing.T, recP *Program, recID uint64, p *Program, id uint64) bool {
	t.Helper()
	var w WalkAhead
	s := w.claim(recP, recID) // never handed to the helper
	if !s.rec.fill(new(walkScratch)) {
		return false
	}
	s.state = slotReady
	st := Stream{next: id + aheadDepth + 1} // claims nothing further
	st.tickets[id%aheadDepth] = s.idx + 1
	st.Start(&w, p, id)
	defer st.Finish()
	return st.held == s
}

// waitWalked waits until the helper is done with the record st claimed in
// w for id: filled, dropped or never claimed.
func waitWalked(t *testing.T, w *WalkAhead, st *Stream, id uint64) {
	t.Helper()
	for i := 0; ; i++ {
		w.mu.Lock()
		tk := st.tickets[id%aheadDepth]
		busy := tk != 0 && (w.slots[tk-1].state == slotQueued || w.slots[tk-1].state == slotWalking)
		w.mu.Unlock()
		if !busy {
			return
		}
		if i == 10_000 {
			t.Fatalf("the helper has not walked id %d in 10 s", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// sameStream fails unless st yields exactly the events of invocation id of
// p, batch by batch.
func sameStream(t *testing.T, st *Stream, p *Program, id uint64) {
	t.Helper()
	w := p.NewInvocation(id)
	var buf, sbuf [256]Instr
	var ev, sev [256]uint16
	for n := len(buf); n == len(buf); {
		var ne int
		n, ne = w.WalkBatch(buf[:], ev[:])
		sn, sne := st.WalkBatch(sbuf[:], sev[:])
		if sn != n || sne != ne {
			t.Fatalf("id %d: stream gave %d instructions and %d events, the walk %d and %d", id, sn, sne, n, ne)
		}
		for k, i := range ev[:ne] {
			if sev[k] != i || sbuf[i] != buf[i] {
				t.Fatalf("id %d, event %d: stream gave %+v, the walk %+v", id, k, sbuf[sev[k]], buf[i])
			}
		}
	}
}

// TestStreamReplaysWalkedAhead checks that a stream's next ids are walked
// ahead and replayed, each as exactly the walk, and that every record goes
// back to the budget.
func TestStreamReplaysWalkedAhead(t *testing.T) {
	spareP(t)
	p := New(tinyConfig(1))
	var w WalkAhead
	var st Stream
	replayed := 0
	for id := uint64(0); id < 8; id++ {
		if id > 0 {
			waitWalked(t, &w, &st, id)
		}
		st.Start(&w, p, id)
		if st.held != nil {
			replayed++
		}
		sameStream(t, &st, p, id)
		st.Finish()
	}
	if replayed != 7 {
		t.Fatalf("%d of ids 1-7 replayed a record walked ahead, want all 7", replayed)
	}
}

// TestPrewalkPanicReachesCaller checks that a walk that panics on the
// helper is dropped there, and raised by the dispatch's own walk with the
// walk's own value.
func TestPrewalkPanicReachesCaller(t *testing.T) {
	spareP(t)
	good := New(tinyConfig(2))
	bad := *good
	bad.lineAddr = nil // every walk indexes it
	walk := func(st *Stream) (v any) {
		defer func() { v = recover() }()
		var buf [256]Instr
		var ev [256]uint16
		for n := len(buf); n == len(buf); n, _ = st.WalkBatch(buf[:], ev[:]) {
		}
		return nil
	}
	var direct Stream
	direct.inv = *bad.NewInvocation(1)
	want := walk(&direct)
	if want == nil {
		t.Fatal("the corrupted program walks without a panic")
	}

	var w WalkAhead
	var st Stream
	st.Start(&w, &bad, 0) // claims ids 1 and 2 for the helper, whose walks panic
	st.Finish()
	waitWalked(t, &w, &st, 1)
	st.Start(&w, &bad, 1)
	if st.held != nil {
		t.Fatal("a record whose walk panicked was replayed")
	}
	if got := walk(&st); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the dispatch raised %v, want the walk's own %v", got, want)
	}
	st.Finish()
	// The helper survived: a sound program still walks ahead.
	var ok Stream
	ok.Start(&w, good, 0)
	ok.Finish()
	waitWalked(t, &w, &ok, 1)
	ok.Start(&w, good, 1)
	if ok.held == nil {
		t.Fatal("after a panicking walk, the helper walked no further record")
	}
	ok.Finish()
}

// TestStreamsConcurrent runs streams of two programs from several
// goroutines at once, as parallel simulations do, two of them on one
// budget and two on their own, each checked against the walk. Run it under
// -race.
func TestStreamsConcurrent(t *testing.T) {
	spareP(t)
	progs := []*Program{New(tinyConfig(3)), New(tinyConfig(4))}
	budgets := make([]WalkAhead, 3)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(p *Program, w *WalkAhead) {
			defer wg.Done()
			var st Stream
			for id := uint64(0); id < 50; id++ {
				st.Start(w, p, id)
				w := p.NewInvocation(id)
				for {
					want, wok := w.Next()
					got, gok := st.Next()
					if got != want || gok != wok {
						errs <- fmt.Sprintf("id %d: stream gave %+v, the walk %+v", id, got, want)
						return
					}
					if !wok {
						break
					}
				}
				st.Finish()
			}
		}(progs[g%2], &budgets[min(g, 2)])
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
