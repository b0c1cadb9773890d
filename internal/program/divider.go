package program

import "math/bits"

// divider performs division and remainder by a fixed divisor with a
// multiply-high sequence instead of a hardware divide (Granlund &
// Montgomery, "Division by Invariant Integers using Multiplication",
// PLDI'94 — the construction libdivide ships). The walker's effective-
// address generator reduces one RNG draw modulo a per-program region size
// for every load and store; hardware 64-bit division costs 20-40 cycles on
// the host, the multiply-high sequence under 5. Results are exactly n/d and
// n%d for every 64-bit n, so the generated streams are bit-identical to the
// hardware-divide path (the unit tests sweep edge divisors exhaustively
// against the native operators).
type divider struct {
	magic uint64
	d     uint64
	shift uint8
	add   bool
}

// newDivider prepares a divider for d. d == 0 yields the zero divider,
// whose mod panics at use — matching RNG.Intn's panic-on-use contract for
// non-positive bounds.
func newDivider(d uint64) divider {
	if d == 0 {
		return divider{}
	}
	floorLog := uint8(63 - bits.LeadingZeros64(d))
	if d&(d-1) == 0 {
		// Power of two: a plain shift (magic 0 flags this path).
		return divider{d: d, shift: floorLog}
	}
	// proposedM = floor(2^(64+floorLog) / d), with remainder.
	proposedM, rem := bits.Div64(uint64(1)<<floorLog, 0, d)
	var add bool
	if e := d - rem; e >= uint64(1)<<floorLog {
		// The round-up magic would not fit in 64 bits: use the wider
		// magic with the add-and-shift fixup.
		proposedM += proposedM
		twiceRem := rem + rem
		if twiceRem >= d || twiceRem < rem {
			proposedM++
		}
		add = true
	}
	return divider{magic: proposedM + 1, d: d, shift: floorLog, add: add}
}

// div returns n / dv.d.
//
//lukewarm:hotpath noalloc,inline,nobce the multiply-high sequence only beats hardware divide if it inlines
func (dv divider) div(n uint64) uint64 {
	if dv.magic == 0 {
		return n >> dv.shift
	}
	q, _ := bits.Mul64(dv.magic, n)
	if dv.add {
		t := ((n - q) >> 1) + q
		return t >> dv.shift
	}
	return q >> dv.shift
}

// mod returns n % dv.d. It panics on the zero divider, mirroring
// RNG.Intn's bound check.
//
//lukewarm:hotpath noalloc,inline,nobce one mod per generated effective address
func (dv divider) mod(n uint64) uint64 {
	if dv.d == 0 {
		panic("program: Intn bound must be positive")
	}
	return n - dv.div(n)*dv.d
}
