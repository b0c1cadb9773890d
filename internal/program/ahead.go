package program

import (
	"runtime"
	"sync"
)

// Walk-ahead. An invocation's stream is a pure function of (program, id),
// and an instance's next ids are known as soon as its current dispatch
// starts, so a short stream can be walked on an idle CPU before it is
// dispatched and replayed from a record instead of walked on the
// dispatching goroutine. Translation, caches and timing still run in the
// same order on the caller's goroutine, so the output is bit-identical
// whichever way a stream arrives.

// aheadDepth is how many of an instance's next ids are walked ahead. In a
// burst an instance is dispatched again before one walk could finish, so
// one id ahead is too few; the second catches most of the bursts, and each
// further id costs a record per instance for few more hits.
const aheadDepth = 2

// aheadSlots is a server's walk-ahead budget: the records it holds at once,
// aheadDepth records for each of 16 instances. With more instances than
// that, the records waiting longest are reclaimed.
const aheadSlots = 32

// slotState is where a record slot is in its life.
type slotState uint8

const (
	slotFree    slotState = iota
	slotQueued            // claimed for its key and sent to the helper
	slotWalking           // the helper is filling it
	slotReady             // filled, waiting for its dispatch
	slotTaken             // a dispatch is replaying it
	slotDropped           // its dispatch went ahead inline while the helper walked it
)

// aheadSlot is one record of a budget. Its state, its stamp and its
// record's key (rec.p, rec.id) are guarded by owner.mu; the rest of the
// record belongs to whoever holds the slot walking or taken.
type aheadSlot struct {
	owner *WalkAhead
	idx   int32
	state slotState
	// stamp orders claims, so the oldest unclaimed record is reclaimed
	// first when the budget runs out.
	stamp uint64
	rec   record
}

// WalkAhead is a server's walk-ahead budget: a fixed set of record slots,
// recycled between the server's instances, which dies with the server. A
// slot names its stream by (program, id) only, so nothing in it keeps an
// instance reachable, and a record is replayed only by a dispatch of
// exactly that program and id. The zero value is ready to use and
// allocates its slots at its first claim.
type WalkAhead struct {
	mu    sync.Mutex
	slots []aheadSlot
	free  []int32
	stamp uint64
}

// take returns w's ready record of ticket t if it holds invocation id of
// p, and nil otherwise; a record its dispatch no longer waits for is
// dropped. Call it with w.mu held.
func (w *WalkAhead) take(t int32, p *Program, id uint64) *aheadSlot {
	if t == 0 {
		return nil
	}
	s := &w.slots[t-1]
	if s.rec.p != p || s.rec.id != id {
		return nil // reclaimed for another stream
	}
	switch s.state {
	case slotReady:
		s.state = slotTaken
		return s
	case slotQueued:
		w.release(s)
	case slotWalking:
		s.state = slotDropped
	}
	return nil
}

// claim assigns a slot of w to invocation id of p and returns it, or nil
// when every slot is busy. With no slot free it reclaims the
// longest-waiting ready record. Call it with w.mu held.
func (w *WalkAhead) claim(p *Program, id uint64) *aheadSlot {
	if w.slots == nil {
		w.slots = make([]aheadSlot, aheadSlots)
		w.free = make([]int32, aheadSlots)
		for i := range w.slots {
			w.slots[i] = aheadSlot{owner: w, idx: int32(i)}
			w.free[i] = int32(aheadSlots - 1 - i)
		}
	}
	var s *aheadSlot
	if n := len(w.free); n > 0 {
		s = &w.slots[w.free[n-1]]
		w.free = w.free[:n-1]
	} else {
		for i := range w.slots {
			if c := &w.slots[i]; c.state == slotReady && (s == nil || c.stamp < s.stamp) {
				s = c
			}
		}
		if s == nil {
			return nil
		}
	}
	w.stamp++
	s.rec.p, s.rec.id, s.state, s.stamp = p, id, slotQueued, w.stamp
	return s
}

// release returns s to w's free list. Call it with w.mu held.
func (w *WalkAhead) release(s *aheadSlot) {
	s.state = slotFree
	w.free = append(w.free, s.idx)
}

// aheadJobs carries claimed slots, of every server's budget, to the
// helper. Its buffer holds a few budgets' slots; a claim that finds it full
// is released and its stream walked inline.
var (
	aheadJobs   = make(chan *aheadSlot, 4*aheadSlots)
	aheadHelper sync.Once
)

// submit hands claimed slots to the helper, starting it on first use.
func submit(slots []*aheadSlot) {
	aheadHelper.Do(func() { go helper() })
	for _, s := range slots {
		select {
		case aheadJobs <- s:
		default:
			w := s.owner
			w.mu.Lock()
			if s.state == slotQueued {
				w.release(s)
			}
			w.mu.Unlock()
		}
	}
}

// helper is the process's one walk-ahead goroutine: it fills each slot it
// is handed that is still queued, and lives as long as the process.
func helper() {
	scratch := new(walkScratch)
	for s := range aheadJobs {
		w := s.owner
		w.mu.Lock()
		if s.state != slotQueued {
			w.mu.Unlock()
			continue // dropped, or reclaimed and already walked
		}
		s.state = slotWalking
		w.mu.Unlock()
		ok := s.rec.fill(scratch)
		w.mu.Lock()
		if ok && s.state == slotWalking {
			s.state = slotReady
		} else {
			w.release(s)
		}
		w.mu.Unlock()
	}
}

// Stream is one instance's source of invocation streams: its pooled walker,
// the tickets of the records walked ahead for its next ids, and the record
// being replayed. Between Start and Finish it yields the started
// invocation's stream, through Next or WalkBatch, from whichever it holds.
type Stream struct {
	inv Invocation
	rp  replay
	// tickets[id%aheadDepth] is the slot index plus one of the record
	// claimed for id, or 0.
	tickets [aheadDepth]int32
	// next is the first id not yet claimed.
	next uint64
	// held is the slot being replayed, nil when the walker runs.
	held *aheadSlot
}

// Start readies the stream of invocation id of p and, for a short program
// with a spare P to walk on, claims records in w for the ids after it. The
// stream is the record walked ahead for id when one is ready, and otherwise
// the walker reset to id. Call Finish once the stream has been consumed.
//
//lukewarm:hotpath noalloc the dispatch path; a per-invocation allocation here multiplies across the fleet
func (st *Stream) Start(w *WalkAhead, p *Program, id uint64) {
	st.Finish() // a dispatch that panicked never finished
	if p.short() && runtime.GOMAXPROCS(0) > 1 {
		st.held = st.walkAhead(w, p, id)
	}
	if st.held != nil {
		st.rp = replay{r: &st.held.rec}
		return
	}
	p.ResetInvocation(&st.inv, id)
}

// walkAhead takes w's ready record of invocation id of p, if there is one,
// and claims records in w for the ids after it.
func (st *Stream) walkAhead(w *WalkAhead, p *Program, id uint64) *aheadSlot {
	var jobs [aheadDepth]*aheadSlot
	k := 0
	w.mu.Lock()
	t := &st.tickets[id%aheadDepth]
	s := w.take(*t, p, id)
	*t = 0
	st.next = max(st.next, id+1)
	for ; st.next <= id+aheadDepth; st.next++ {
		if c := w.claim(p, st.next); c != nil {
			st.tickets[st.next%aheadDepth] = c.idx + 1
			jobs[k] = c
			k++
		}
	}
	w.mu.Unlock()
	submit(jobs[:k])
	return s
}

// Finish releases the record the last Start handed out, if any.
func (st *Stream) Finish() {
	s := st.held
	if s == nil {
		return
	}
	st.held, st.rp = nil, replay{}
	w := s.owner
	w.mu.Lock()
	w.release(s)
	w.mu.Unlock()
}

// WalkBatch is the started stream's WalkBatch (see Invocation.WalkBatch); a
// replayed record writes only the events into buf.
//
//lukewarm:hotpath noalloc,noescape the core's bulk source on every dispatch
func (st *Stream) WalkBatch(buf []Instr, ev []uint16) (n, ne int) {
	if st.held != nil {
		return st.rp.WalkBatch(buf, ev)
	}
	return st.inv.WalkBatch(buf, ev)
}

// Next yields the started stream's next instruction; ok is false at its
// end.
func (st *Stream) Next() (Instr, bool) {
	if st.held != nil {
		return st.rp.Next()
	}
	return st.inv.Next()
}
