// Package violate is the deliberately-failing CompileCheck fixture: each
// annotation declares an invariant its function visibly violates, and the
// gate test asserts that the compiler's escape/inline/bounds-check
// diagnostics surface as lint findings. This package is under testdata, so
// `go build ./...` and the repo-wide lint never see it; only the perf test
// suite compiles it, explicitly.
package violate

//lukewarm:hotpath noalloc,noescape fixture: the local escapes through the returned pointer
func escapes() *int {
	x := 42
	return &x
}

//lukewarm:hotpath nobce fixture: the index is data-dependent, so the bounds check survives
func gather(xs []int, idx []int) int {
	s := 0
	for _, i := range idx {
		s += xs[i]
	}
	return s
}

//go:noinline
//lukewarm:hotpath inline fixture: explicitly marked noinline, so the verdict is cannot-inline
func heavy(a, b int) int { return a + b }

type prefetcher interface{ Prefetch() }

type multi []prefetcher

func (m multi) Prefetch() {}

type core struct{ pf prefetcher }

//lukewarm:hotpath noalloc fixture: storing a slice in an interface field boxes its header on every call
func (c *core) bind(m multi) {
	c.pf = m
}
