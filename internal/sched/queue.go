package sched

import "lukewarm/internal/mem"

// Queue is the simulator's event heap: a min-heap of values ordered by due
// time, ties broken by insertion order. The ordering is total, so the pop
// sequence — the only observable — is independent of heap internals. The
// queue owns both sort keys: at is passed to Push and seq is its own
// insertion counter, so the comparison reads concrete fields and inlines
// into every instantiation (a less func or a method on T would be called
// through the generic dictionary instead). The zero value is an empty queue.
type Queue[T any] struct {
	h   heap[T]
	seq uint64
}

// queued is one heap entry; the sort keys lead so their offsets do not
// depend on T.
type queued[T any] struct {
	at  mem.Cycle
	seq uint64
	v   T
}

type heap[T any] []queued[T]

func (h heap[T]) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// Len reports the number of queued values.
func (q *Queue[T]) Len() int { return len(q.h) }

// Due reports how many queued values are due at or before t.
func (q *Queue[T]) Due(t mem.Cycle) int {
	n := 0
	for i := range q.h {
		if q.h[i].at <= t {
			n++
		}
	}
	return n
}

// Push queues v at time at; the backing array grows to the in-flight
// high-water mark once, then is reused.
//
//lukewarm:hotpath noalloc one push per generated invocation and per fleet event
func (q *Queue[T]) Push(at mem.Cycle, v T) {
	q.h = append(q.h, queued[T]{at: at, seq: q.seq, v: v})
	q.seq++
	h := q.h
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// Pop removes and returns the earliest value and its due time. The queue
// must not be empty.
//
//lukewarm:hotpath noalloc,noescape one pop per dispatched invocation and per fleet event; pure in-place swaps
func (q *Queue[T]) Pop() (mem.Cycle, T) {
	h := q.h
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h = h[:n]
	q.h = h
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && h.less(r, l) {
			child = r
		}
		if !h.less(child, i) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	return top.at, top.v
}
