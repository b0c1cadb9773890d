package sched

import (
	"slices"
	"testing"

	"lukewarm/internal/mem"
)

// TestQueuePopOrder pins the heap's total order: earliest time first, equal
// times in insertion order, including values pushed after earlier pops.
func TestQueuePopOrder(t *testing.T) {
	type push struct {
		at mem.Cycle
		v  string
	}
	cases := []struct {
		name   string
		pushes []push
		popsAt int // pop this many before pushing the rest
		later  []push
		want   []string
	}{
		{name: "empty"},
		{
			name:   "distinct times",
			pushes: []push{{5, "e"}, {1, "a"}, {3, "c"}, {2, "b"}, {4, "d"}},
			want:   []string{"a", "b", "c", "d", "e"},
		},
		{
			name:   "all tied",
			pushes: []push{{7, "first"}, {7, "second"}, {7, "third"}, {7, "fourth"}},
			want:   []string{"first", "second", "third", "fourth"},
		},
		{
			name:   "ties among distinct times",
			pushes: []push{{2, "b1"}, {1, "a1"}, {2, "b2"}, {1, "a2"}, {3, "c"}, {2, "b3"}},
			want:   []string{"a1", "a2", "b1", "b2", "b3", "c"},
		},
		{
			name:   "push after pop ties behind earlier pushes",
			pushes: []push{{1, "a"}, {4, "d1"}, {9, "z"}},
			popsAt: 1,
			later:  []push{{4, "d2"}, {2, "early"}, {4, "d3"}},
			want:   []string{"a", "early", "d1", "d2", "d3", "z"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var q Queue[string]
			for _, p := range tc.pushes {
				q.Push(p.at, p.v)
			}
			var got []string
			var last mem.Cycle
			pop := func() {
				at, v := q.Pop()
				if len(got) > 0 && at < last {
					t.Errorf("popped %q at %d after time %d", v, at, last)
				}
				last = at
				got = append(got, v)
			}
			for i := 0; i < tc.popsAt; i++ {
				pop()
			}
			for _, p := range tc.later {
				q.Push(p.at, p.v)
			}
			for q.Len() > 0 {
				pop()
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("pop order %q, want %q", got, tc.want)
			}
		})
	}
}
