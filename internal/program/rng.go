package program

// RNG is a small, fast, deterministic xorshift64* generator. Every source of
// randomness in the simulator flows through named RNG streams seeded from
// (function, invocation) pairs, so whole experiments replay bit-identically.
type RNG struct {
	state uint64
}

// NewRNG creates a generator from seed; a zero seed is remapped to a fixed
// non-zero constant because xorshift has a zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	// inlined at every hot call site and immediately dereferenced, so escape analysis keeps it on the stack (perfgate-verified)
	return &RNG{state: seed}
}

// Mix hashes two seeds into one (splitmix64 finalizer), used to derive
// per-invocation streams from a per-function seed.
func Mix(a, b uint64) uint64 {
	z := a + 0x9E3779B97F4A7C15 + b*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// Uint64 returns the next raw 64-bit value.
//
//lukewarm:hotpath noalloc,noescape,inline,nobce three draws per generated instruction; must compile to straight-line xorshift
func (r *RNG) Uint64() uint64 {
	r.state ^= r.state >> 12
	r.state ^= r.state << 25
	r.state ^= r.state >> 27
	return r.state * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n). It panics for n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("program: Intn bound must be positive")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Range returns a value in [lo, hi] inclusive. It panics if hi < lo.
func (r *RNG) Range(lo, hi int) int {
	if hi < lo {
		panic("program: Range bounds inverted")
	}
	return lo + r.Intn(hi-lo+1)
}
