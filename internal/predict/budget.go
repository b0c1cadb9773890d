package predict

import "lukewarm/internal/cfgerr"

// Budget is a fleet-level pre-warm allowance shared across every node's
// traffic simulation: a total cap on scheduled pre-warms plus a per-function
// refractory window, so hedged or retried traffic judged on two nodes never
// double-pre-warms the same function arrival. A nil *Budget allows
// everything. Budgets are consulted in deterministic dispatch order and are
// not safe for concurrent use.
type Budget struct {
	total        int
	refractoryMs float64
	granted      int
	last         map[string]float64
}

// NewBudget builds a shared allowance. total caps scheduled pre-warms
// fleet-wide (0 = unlimited); refractoryMs is the minimum spacing between
// granted pre-warms of the same function anywhere in the fleet (0 = none;
// +Inf grants each function one pre-warm for the whole run). A negative
// total and a negative or NaN refractoryMs are rejected by Validate, and so
// by every traffic simulation the budget is handed to.
func NewBudget(total int, refractoryMs float64) *Budget {
	return &Budget{total: total, refractoryMs: refractoryMs, last: map[string]float64{}}
}

// Validate reports whether the allowance is realizable; a nil budget is.
// Errors wrap cfgerr.ErrBadConfig.
func (b *Budget) Validate() error {
	switch {
	case b == nil:
		return nil
	case b.total < 0:
		return cfgerr.New("predict: Budget total must be non-negative (0 = unlimited), got %d", b.total)
	case !(b.refractoryMs >= 0):
		return cfgerr.New("predict: Budget refractory window must be non-negative, got %g", b.refractoryMs)
	}
	return nil
}

// Allow reports whether a pre-warm of fn firing at absolute time atMs may be
// scheduled, and records it when granted.
func (b *Budget) Allow(fn string, atMs float64) bool {
	if b == nil {
		return true
	}
	if b.total > 0 && b.granted >= b.total {
		return false
	}
	if b.refractoryMs > 0 {
		if last, ok := b.last[fn]; ok {
			d := atMs - last
			if d < 0 {
				d = -d
			}
			if d < b.refractoryMs {
				return false
			}
		}
	}
	b.granted++
	b.last[fn] = atMs
	return true
}

// Granted reports how many pre-warms the budget has admitted.
func (b *Budget) Granted() int {
	if b == nil {
		return 0
	}
	return b.granted
}
